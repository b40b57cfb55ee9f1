package motion

import (
	"encoding/binary"
	"math"
	"testing"
)

// walkPath is a four-knot 3-D trajectory used across the tests.
func walkPath(t *testing.T, interp Interp) *Path {
	t.Helper()
	p, err := NewPath([]Waypoint{
		{T: 0, X: 1, Y: 0.5, Z: 1.2, OrientationDeg: 0},
		{T: 2, X: 3, Y: 1.0, Z: 1.4, OrientationDeg: 20},
		{T: 5, X: 4, Y: -1.0, Z: 1.1, OrientationDeg: -30},
		{T: 7, X: 6, Y: 0.5, Z: 1.3, OrientationDeg: 10},
	}, interp)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestAnalyticDerivativeMatchesFiniteDifference is the motion half of the
// PR's differential gate: for both interpolations, VelocityAt must match a
// central finite difference of PoseAt within 1e-6 m/s, and the planar
// radial velocity must match the finite difference of the range.
func TestAnalyticDerivativeMatchesFiniteDifference(t *testing.T) {
	const h = 1e-6
	for _, interp := range []Interp{Linear, Cubic} {
		p := walkPath(t, interp)
		for ts := 0.05; ts < p.Duration(); ts += 0.1 {
			// Skip the knot neighborhoods for Linear: velocity jumps there.
			if interp == Linear && nearKnot(p, ts, 2*h) {
				continue
			}
			v := p.VelocityAt(ts)
			a, b := p.PoseAt(ts-h), p.PoseAt(ts+h)
			fd := Velocity{VX: (b.X - a.X) / (2 * h), VY: (b.Y - a.Y) / (2 * h), VZ: (b.Z - a.Z) / (2 * h)}
			if math.Abs(v.VX-fd.VX) > 1e-6 || math.Abs(v.VY-fd.VY) > 1e-6 || math.Abs(v.VZ-fd.VZ) > 1e-6 {
				t.Fatalf("interp %d t=%.2f: analytic %+v vs finite-difference %+v", interp, ts, v, fd)
			}
			rv := RadialVelocity(p.PoseAt(ts), v)
			fdr := (math.Hypot(b.X, b.Y) - math.Hypot(a.X, a.Y)) / (2 * h)
			if math.Abs(rv-fdr) > 1e-6 {
				t.Fatalf("interp %d t=%.2f: radial %g vs finite-difference %g", interp, ts, rv, fdr)
			}
		}
	}
}

func nearKnot(p *Path, ts, eps float64) bool {
	for _, w := range p.wps {
		if math.Abs(ts-w.T) <= eps {
			return true
		}
	}
	return false
}

// TestPathInterpolatesKnots: both modes pass exactly through every
// waypoint, hold the endpoint poses outside the span with zero velocity,
// and Cubic keeps velocity continuous across interior knots.
func TestPathInterpolatesKnots(t *testing.T) {
	for _, interp := range []Interp{Linear, Cubic} {
		p := walkPath(t, interp)
		for _, w := range p.wps {
			g := p.PoseAt(w.T)
			if math.Abs(g.X-w.X) > 1e-12 || math.Abs(g.Y-w.Y) > 1e-12 || math.Abs(g.Z-w.Z) > 1e-12 {
				t.Fatalf("interp %d: PoseAt(%g) = %+v, want knot %+v", interp, w.T, g, w)
			}
		}
		before, after := p.PoseAt(-5), p.PoseAt(100)
		if before != p.PoseAt(0) || after != p.PoseAt(p.Duration()) {
			t.Fatalf("interp %d: endpoint poses do not hold outside the span", interp)
		}
		if (p.VelocityAt(-5) != Velocity{}) || (p.VelocityAt(100) != Velocity{}) {
			t.Fatalf("interp %d: velocity outside the span must be zero", interp)
		}
	}

	p := walkPath(t, Cubic)
	for _, knot := range []float64{2, 5} {
		lo, hi := p.VelocityAt(knot-1e-9), p.VelocityAt(knot+1e-9)
		if math.Abs(lo.VX-hi.VX) > 1e-6 || math.Abs(lo.VY-hi.VY) > 1e-6 {
			t.Fatalf("cubic velocity discontinuous at knot %g: %+v vs %+v", knot, lo, hi)
		}
	}
}

// TestConstantSpeed assigns times from chord length and checks the linear
// path actually moves at the requested speed.
func TestConstantSpeed(t *testing.T) {
	wps, err := ConstantSpeed([]Waypoint{
		{X: 0, Y: 0}, {X: 3, Y: 4}, {X: 3, Y: 10},
	}, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if wps[0].T != 0 || math.Abs(wps[1].T-2) > 1e-12 || math.Abs(wps[2].T-4.4) > 1e-12 {
		t.Fatalf("times = %g, %g, %g; want 0, 2, 4.4", wps[0].T, wps[1].T, wps[2].T)
	}
	p := MustNewPath(wps, Linear)
	if s := p.VelocityAt(1).Speed(); math.Abs(s-2.5) > 1e-12 {
		t.Fatalf("speed at t=1: %g, want 2.5", s)
	}
	if _, err := ConstantSpeed([]Waypoint{{X: 1}, {X: 1}}, 1); err == nil {
		t.Fatal("coincident waypoints must be rejected")
	}
	if _, err := ConstantSpeed([]Waypoint{{X: 0}, {X: 1}}, 0); err == nil {
		t.Fatal("non-positive speed must be rejected")
	}
}

// TestPathValidationAndTranslate covers constructor errors and the
// frame-shift helper.
func TestPathValidationAndTranslate(t *testing.T) {
	if _, err := NewPath(nil, Linear); err == nil {
		t.Error("empty waypoint list must be rejected")
	}
	if _, err := NewPath([]Waypoint{{T: 0}, {T: 0}}, Linear); err == nil {
		t.Error("non-increasing times must be rejected")
	}
	if _, err := NewPath([]Waypoint{{T: math.NaN()}}, Linear); err == nil {
		t.Error("NaN fields must be rejected")
	}
	if _, err := NewPath([]Waypoint{{T: 0}}, Interp(9)); err == nil {
		t.Error("unknown interpolation must be rejected")
	}

	single := MustNewPath([]Waypoint{{T: 0, X: 2, Y: 3, OrientationDeg: 45}}, Cubic)
	if g := single.PoseAt(10); g.X != 2 || g.Y != 3 || g.OrientationDeg != 45 {
		t.Errorf("single-waypoint hold broken: %+v", g)
	}

	p := walkPath(t, Cubic)
	q := p.Translated(-10, 2)
	for ts := 0.0; ts <= p.Duration(); ts += 0.5 {
		a, b := p.PoseAt(ts), q.PoseAt(ts)
		if math.Abs(b.X-(a.X-10)) > 1e-12 || math.Abs(b.Y-(a.Y+2)) > 1e-12 || b.Z != a.Z {
			t.Fatalf("t=%g: translated pose %+v vs base %+v", ts, b, a)
		}
		va, vb := p.VelocityAt(ts), q.VelocityAt(ts)
		if math.Abs(va.VX-vb.VX) > 1e-9 || math.Abs(va.VY-vb.VY) > 1e-9 || va.VZ != vb.VZ {
			t.Fatalf("t=%g: translation changed velocity: %+v vs %+v", ts, va, vb)
		}
	}
}

// TestNewPathRejectsOverflowingInterpolation pins that finite waypoints are
// not enough: a path whose segment difference or slope overflows would
// evaluate to non-finite poses between its knots, so NewPath rejects it.
func TestNewPathRejectsOverflowingInterpolation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		wps    []Waypoint
		interp Interp
	}{
		{"linear difference overflows", []Waypoint{{T: 0, X: -1.5e308}, {T: 1, X: 1.5e308}}, Linear},
		{"cubic slope overflows", []Waypoint{{T: 0, X: 0}, {T: 1e-320, X: 1}, {T: 1, X: 2}}, Cubic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if p, err := NewPath(tc.wps, tc.interp); err == nil {
				t.Fatalf("accepted; pose at the first midpoint is %+v", p.PoseAt(tc.wps[0].T+(tc.wps[1].T-tc.wps[0].T)/2))
			}
		})
	}
}

// waypointBytes is the byte form FuzzNewPath decodes: five little-endian
// float64s per waypoint (T, X, Y, Z, OrientationDeg).
const waypointBytes = 5 * 8

func encodeWaypoints(wps []Waypoint) []byte {
	var b []byte
	for _, w := range wps {
		for _, v := range [...]float64{w.T, w.X, w.Y, w.Z, w.OrientationDeg} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

// FuzzNewPath checks NewPath's contract on arbitrary waypoints: it never
// panics, and every path it accepts has a finite pose and velocity at each
// knot, each segment midpoint, and before and after its ends.
func FuzzNewPath(f *testing.F) {
	walk := []Waypoint{
		{T: 0, X: 1, Y: 0.5, Z: 1.2, OrientationDeg: 0},
		{T: 2, X: 3, Y: 1.0, Z: 1.4, OrientationDeg: 20},
		{T: 5, X: 4, Y: -1.0, Z: 1.1, OrientationDeg: -30},
	}
	f.Add(encodeWaypoints(walk), false)
	f.Add(encodeWaypoints(walk), true)
	f.Add(encodeWaypoints([]Waypoint{{T: 0, X: -1.5e308}, {T: 1, X: 1.5e308}}), false)
	f.Add(encodeWaypoints([]Waypoint{{T: 0, X: 0}, {T: 1e-320, X: 1}, {T: 1, X: 2}}), true)
	f.Fuzz(func(t *testing.T, data []byte, cubic bool) {
		var wps []Waypoint
		for len(data) >= waypointBytes && len(wps) < 8 {
			var v [5]float64
			for i := range v {
				v[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			}
			wps = append(wps, Waypoint{T: v[0], X: v[1], Y: v[2], Z: v[3], OrientationDeg: v[4]})
			data = data[waypointBytes:]
		}
		interp := Linear
		if cubic {
			interp = Cubic
		}
		p, err := NewPath(wps, interp)
		if err != nil {
			return
		}
		times := []float64{p.Start() - 1, p.Duration() + 1}
		for i, w := range wps {
			times = append(times, w.T)
			if i+1 < len(wps) {
				times = append(times, w.T+(wps[i+1].T-w.T)/2)
			}
		}
		for _, ts := range times {
			pose, v := p.PoseAt(ts), p.VelocityAt(ts)
			for _, x := range [...]float64{pose.X, pose.Y, pose.Z, pose.OrientationDeg, v.VX, v.VY, v.VZ} {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("accepted path %+v (interp %d) is non-finite at t=%g: pose %+v velocity %+v",
						wps, interp, ts, pose, v)
				}
			}
		}
	})
}
