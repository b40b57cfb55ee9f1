package rfsim

import "fmt"

// Obstruction is a blocking segment in the 2-D plane — a human body, a
// metal cabinet, a closed door. mmWave links are famously fragile to such
// blockers: each crossing attenuates a path by LossDB (one-way). Typical
// values: human torso 20–35 dB, drywall 5–8 dB, metal cabinet 40+ dB at
// 28 GHz.
type Obstruction struct {
	Name string
	// A and B are the segment endpoints.
	A, B Point
	// LossDB is the one-way penetration loss in dB (positive).
	LossDB float64
}

// AddObstruction appends a blocker to the scene. It panics on a
// non-positive loss (use RemoveObstruction to clear one).
func (s *Scene) AddObstruction(o Obstruction) {
	if o.LossDB <= 0 {
		panic(fmt.Sprintf("rfsim: obstruction loss must be positive, got %g", o.LossDB))
	}
	s.Obstructions = append(s.Obstructions, o)
}

// RemoveObstruction deletes the first obstruction with the given name,
// reporting whether one was found.
func (s *Scene) RemoveObstruction(name string) bool {
	for i, o := range s.Obstructions {
		if o.Name == name {
			s.Obstructions = append(s.Obstructions[:i], s.Obstructions[i+1:]...)
			return true
		}
	}
	return false
}

// ObstructionLossDB returns the total one-way penetration loss (dB) a ray
// from `from` to `to` accumulates crossing the scene's obstructions.
func (s *Scene) ObstructionLossDB(from, to Point) float64 {
	loss := 0.0
	for _, o := range s.Obstructions {
		if segmentsIntersect(from, to, o.A, o.B) {
			loss += o.LossDB
		}
	}
	return loss
}

// orientation of the ordered triple (p, q, r): >0 counter-clockwise,
// <0 clockwise, 0 collinear.
func cross(p, q, r Point) float64 {
	return (q.X-p.X)*(r.Y-p.Y) - (q.Y-p.Y)*(r.X-p.X)
}

// onSegment reports whether collinear point r lies on segment pq.
func onSegment(p, q, r Point) bool {
	return min(p.X, q.X) <= r.X && r.X <= max(p.X, q.X) &&
		min(p.Y, q.Y) <= r.Y && r.Y <= max(p.Y, q.Y)
}

// segmentsIntersect reports whether segments p1p2 and q1q2 intersect,
// including touching endpoints and collinear overlap.
func segmentsIntersect(p1, p2, q1, q2 Point) bool {
	d1 := cross(q1, q2, p1)
	d2 := cross(q1, q2, p2)
	d3 := cross(p1, p2, q1)
	d4 := cross(p1, p2, q2)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	switch {
	case d1 == 0 && onSegment(q1, q2, p1):
		return true
	case d2 == 0 && onSegment(q1, q2, p2):
		return true
	case d3 == 0 && onSegment(p1, p2, q1):
		return true
	case d4 == 0 && onSegment(p1, p2, q2):
		return true
	}
	return false
}
