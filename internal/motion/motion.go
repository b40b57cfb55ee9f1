package motion

import (
	"fmt"
	"math"
)

// Pose is a trajectory sample: position in meters (the simulation's RF
// plane is X/Y; Z rides along for 3-D tracking) plus the node's facing.
type Pose struct {
	X, Y, Z        float64
	OrientationDeg float64
}

// Velocity is the analytic time derivative of a trajectory's position,
// in m/s per axis.
type Velocity struct {
	VX, VY, VZ float64
}

// Speed returns the velocity magnitude in m/s.
func (v Velocity) Speed() float64 {
	return math.Sqrt(v.VX*v.VX + v.VY*v.VY + v.VZ*v.VZ)
}

// Waypoint is one knot of a trajectory: where the node is at time T
// (seconds since the trajectory's start) and which way it faces.
type Waypoint struct {
	T              float64
	X, Y, Z        float64
	OrientationDeg float64
}

// Interp selects how a Path interpolates between waypoints.
type Interp int

// Linear connects waypoints with straight constant-velocity segments
// (velocity jumps at knots). Cubic fits a Catmull-Rom Hermite spline on
// the non-uniform knot times: position and velocity are continuous, which
// is what the Doppler consistency gate needs for smooth motion.
const (
	Linear Interp = iota
	Cubic
)

// Path is an immutable continuous-time trajectory through waypoints.
// Before the first waypoint and after the last the pose holds (zero
// velocity); in between, PoseAt and VelocityAt evaluate the chosen
// interpolation and its analytic derivative at any timestamp.
type Path struct {
	wps        []Waypoint
	interp     Interp
	mx, my, mz []float64 // cubic tangents (d/dt) per waypoint, per axis
}

// NewPath validates the waypoints (at least one; strictly increasing,
// finite times; finite coordinates; an interpolation that cannot overflow,
// see maxTerm) and builds a trajectory. A single waypoint yields a static
// hold.
func NewPath(wps []Waypoint, interp Interp) (*Path, error) {
	if len(wps) == 0 {
		return nil, fmt.Errorf("motion: a path needs at least one waypoint")
	}
	if interp != Linear && interp != Cubic {
		return nil, fmt.Errorf("motion: unknown interpolation %d", interp)
	}
	for i, w := range wps {
		if !finite(w.T) || !finite(w.X) || !finite(w.Y) || !finite(w.Z) || !finite(w.OrientationDeg) {
			return nil, fmt.Errorf("motion: waypoint %d has a non-finite field: %+v", i, w)
		}
		if i > 0 && w.T <= wps[i-1].T {
			return nil, fmt.Errorf("motion: waypoint times must be strictly increasing (waypoint %d: %g after %g)", i, w.T, wps[i-1].T)
		}
	}
	p := &Path{wps: append([]Waypoint(nil), wps...), interp: interp}
	if interp == Cubic && len(wps) >= 2 {
		p.mx = tangents(p.wps, func(w Waypoint) float64 { return w.X })
		p.my = tangents(p.wps, func(w Waypoint) float64 { return w.Y })
		p.mz = tangents(p.wps, func(w Waypoint) float64 { return w.Z })
	}
	if err := p.checkTerms(); err != nil {
		return nil, err
	}
	return p, nil
}

// maxTerm bounds every waypoint coordinate and every per-segment term the
// interpolants combine: the segment's duration, its coordinate differences
// and slopes, and (Cubic) its tangent terms h·m. PoseAt and VelocityAt sum
// at most four such terms with basis weights of at most 1.5, so with each
// term inside ±MaxFloat64/16 no sum can overflow between the knots.
const maxTerm = math.MaxFloat64 / 16

// checkTerms rejects a path whose interpolation could overflow to a
// non-finite pose or velocity although every waypoint is finite.
func (p *Path) checkTerms() error {
	for i, w := range p.wps {
		for _, v := range [...]float64{w.X, w.Y, w.Z, w.OrientationDeg} {
			if !bounded(v) {
				return fmt.Errorf("motion: waypoint %d coordinate %g is beyond ±%g", i, v, maxTerm)
			}
		}
	}
	for i := 0; i+1 < len(p.wps); i++ {
		a, b := p.wps[i], p.wps[i+1]
		h := b.T - a.T
		if !bounded(h) {
			return fmt.Errorf("motion: segment %d lasts %g s, beyond %g", i, h, maxTerm)
		}
		if !bounded(b.OrientationDeg - a.OrientationDeg) {
			return fmt.Errorf("motion: segment %d turns by a non-finite or oversized angle", i)
		}
		for ax, c := range [...][2]float64{{a.X, b.X}, {a.Y, b.Y}, {a.Z, b.Z}} {
			d := c[1] - c[0]
			if !bounded(d) || !bounded(d/h) {
				return fmt.Errorf("motion: segment %d axis %d moves %g in %g s: difference or slope beyond ±%g",
					i, ax, d, h, maxTerm)
			}
		}
		if p.interp != Cubic {
			continue
		}
		for ax, m := range [...][]float64{p.mx, p.my, p.mz} {
			if !bounded(m[i]) || !bounded(m[i+1]) || !bounded(h*m[i]) || !bounded(h*m[i+1]) {
				return fmt.Errorf("motion: segment %d axis %d has tangents %g, %g over %g s: tangent term beyond ±%g",
					i, ax, m[i], m[i+1], h, maxTerm)
			}
		}
	}
	return nil
}

// MustNewPath is NewPath for known-good waypoints.
func MustNewPath(wps []Waypoint, interp Interp) *Path {
	p, err := NewPath(wps, interp)
	if err != nil {
		panic(err)
	}
	return p
}

// ConstantSpeed returns a copy of the waypoints with times assigned so the
// node traverses the polyline at the given speed (m/s): T[0] = 0, then
// cumulative chord length over speed. Zero-length hops are rejected (they
// would produce duplicate knot times).
func ConstantSpeed(wps []Waypoint, speedMS float64) ([]Waypoint, error) {
	if speedMS <= 0 || !finite(speedMS) {
		return nil, fmt.Errorf("motion: speed must be positive and finite, got %g", speedMS)
	}
	out := append([]Waypoint(nil), wps...)
	t := 0.0
	for i := range out {
		if i == 0 {
			out[i].T = 0
			continue
		}
		dx := out[i].X - out[i-1].X
		dy := out[i].Y - out[i-1].Y
		dz := out[i].Z - out[i-1].Z
		d := math.Sqrt(dx*dx + dy*dy + dz*dz)
		if d == 0 {
			return nil, fmt.Errorf("motion: waypoints %d and %d coincide; constant-speed timing needs distinct points", i-1, i)
		}
		t += d / speedMS
		out[i].T = t
	}
	return out, nil
}

// Duration returns the time of the last waypoint.
func (p *Path) Duration() float64 { return p.wps[len(p.wps)-1].T }

// Start returns the first waypoint's time.
func (p *Path) Start() float64 { return p.wps[0].T }

// PoseAt evaluates the trajectory at time t (seconds since trajectory
// start). Outside [Start, Duration] the nearest endpoint pose holds.
func (p *Path) PoseAt(t float64) Pose {
	n := len(p.wps)
	if t <= p.wps[0].T || n == 1 {
		w := p.wps[0]
		return Pose{X: w.X, Y: w.Y, Z: w.Z, OrientationDeg: w.OrientationDeg}
	}
	if t >= p.wps[n-1].T {
		w := p.wps[n-1]
		return Pose{X: w.X, Y: w.Y, Z: w.Z, OrientationDeg: w.OrientationDeg}
	}
	i := p.segment(t)
	a, b := p.wps[i], p.wps[i+1]
	h := b.T - a.T
	s := (t - a.T) / h
	// Orientation interpolates linearly in every mode: yaw is display
	// state, not differentiated, and linear keeps it monotone between
	// knots.
	orient := a.OrientationDeg + s*(b.OrientationDeg-a.OrientationDeg)
	if p.interp == Linear {
		return Pose{
			X:              a.X + s*(b.X-a.X),
			Y:              a.Y + s*(b.Y-a.Y),
			Z:              a.Z + s*(b.Z-a.Z),
			OrientationDeg: orient,
		}
	}
	return Pose{
		X:              hermite(a.X, b.X, p.mx[i], p.mx[i+1], h, s),
		Y:              hermite(a.Y, b.Y, p.my[i], p.my[i+1], h, s),
		Z:              hermite(a.Z, b.Z, p.mz[i], p.mz[i+1], h, s),
		OrientationDeg: orient,
	}
}

// VelocityAt evaluates the analytic derivative of PoseAt at time t. Outside
// the open interval (Start, Duration) the pose holds, so velocity is zero;
// Linear segments report their constant chord velocity, Cubic segments the
// Hermite derivative. This is the ground truth the Doppler differential
// gate pins synthesized radial velocity against.
func (p *Path) VelocityAt(t float64) Velocity {
	n := len(p.wps)
	if n == 1 || t <= p.wps[0].T || t >= p.wps[n-1].T {
		return Velocity{}
	}
	i := p.segment(t)
	a, b := p.wps[i], p.wps[i+1]
	h := b.T - a.T
	if p.interp == Linear {
		return Velocity{VX: (b.X - a.X) / h, VY: (b.Y - a.Y) / h, VZ: (b.Z - a.Z) / h}
	}
	s := (t - a.T) / h
	return Velocity{
		VX: hermiteDeriv(a.X, b.X, p.mx[i], p.mx[i+1], h, s),
		VY: hermiteDeriv(a.Y, b.Y, p.my[i], p.my[i+1], h, s),
		VZ: hermiteDeriv(a.Z, b.Z, p.mz[i], p.mz[i+1], h, s),
	}
}

// Translated returns a copy of the path shifted by (dx, dy) in the plane —
// how the cluster rebinds a cluster-frame trajectory into a cell's local
// frame (Z and times are frame-independent).
func (p *Path) Translated(dx, dy float64) *Path {
	wps := append([]Waypoint(nil), p.wps...)
	for i := range wps {
		wps[i].X += dx
		wps[i].Y += dy
	}
	return MustNewPath(wps, p.interp)
}

// RadialVelocity projects a velocity onto the planar line of sight from
// the origin (the AP) to the pose: d/dt of hypot(x, y). This is the
// quantity the FMCW synthesizer consumes as the target's range rate. At
// the origin the direction is undefined and the result is zero.
func RadialVelocity(pose Pose, v Velocity) float64 {
	r := math.Hypot(pose.X, pose.Y)
	if r == 0 {
		return 0
	}
	return (pose.X*v.VX + pose.Y*v.VY) / r
}

// segment returns the index i with wps[i].T <= t < wps[i+1].T by binary
// search; callers guarantee t is inside the knot span.
func (p *Path) segment(t float64) int {
	lo, hi := 0, len(p.wps)-2
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if p.wps[mid].T <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// tangents computes Catmull-Rom tangents (d/dt) on non-uniform knots: the
// average of adjacent chord slopes at interior waypoints, one-sided chords
// at the ends.
func tangents(wps []Waypoint, coord func(Waypoint) float64) []float64 {
	n := len(wps)
	m := make([]float64, n)
	slope := func(i int) float64 {
		return (coord(wps[i+1]) - coord(wps[i])) / (wps[i+1].T - wps[i].T)
	}
	m[0] = slope(0)
	m[n-1] = slope(n - 2)
	for i := 1; i < n-1; i++ {
		m[i] = (slope(i-1) + slope(i)) / 2
	}
	return m
}

// hermite evaluates the cubic Hermite basis on a segment of length h at
// normalized position s ∈ [0, 1], with endpoint values p0/p1 and endpoint
// derivatives (per unit time) m0/m1.
func hermite(p0, p1, m0, m1, h, s float64) float64 {
	s2 := s * s
	s3 := s2 * s
	return (2*s3-3*s2+1)*p0 + (s3-2*s2+s)*h*m0 + (-2*s3+3*s2)*p1 + (s3-s2)*h*m1
}

// hermiteDeriv is d(hermite)/dt: the basis derivative in s, divided by h.
func hermiteDeriv(p0, p1, m0, m1, h, s float64) float64 {
	s2 := s * s
	return ((6*s2-6*s)*p0 + (3*s2-4*s+1)*h*m0 + (-6*s2+6*s)*p1 + (3*s2-2*s)*h*m1) / h
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// bounded reports whether x is a number within ±maxTerm.
func bounded(x float64) bool { return math.Abs(x) <= maxTerm }
