package rfsim

import (
	"fmt"
	"math"
)

// SpeedOfLight in vacuum, m/s.
const SpeedOfLight = 299792458.0

// Point is a position in the 2-D simulation plane, in meters. The AP sits at
// the origin facing +x.
type Point struct {
	X, Y float64
}

// Distance returns the Euclidean distance between two points.
func (p Point) Distance(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// AngleFrom returns the azimuth of p as seen from q, in radians,
// measured from the +x axis.
func (p Point) AngleFrom(q Point) float64 {
	return math.Atan2(p.Y-q.Y, p.X-q.X)
}

// PolarPoint builds a point from a range r (m) and azimuth theta (radians)
// relative to the origin.
func PolarPoint(r, theta float64) Point {
	s, c := math.Sincos(theta)
	return Point{X: r * c, Y: r * s}
}

// Wavelength returns the free-space wavelength (m) of a carrier at f Hz.
func Wavelength(f float64) float64 {
	if f <= 0 {
		panic(fmt.Sprintf("rfsim: Wavelength of non-positive frequency %g", f))
	}
	return SpeedOfLight / f
}

// PropagationDelay returns the one-way propagation delay (s) over d meters.
func PropagationDelay(d float64) float64 { return d / SpeedOfLight }

// DegToRad converts degrees to radians.
func DegToRad(deg float64) float64 { return deg * math.Pi / 180 }

// RadToDeg converts radians to degrees.
func RadToDeg(rad float64) float64 { return rad * 180 / math.Pi }

// WrapAngle wraps an angle in radians to (-π, π].
func WrapAngle(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

// ThermalNoiseDBm returns the thermal noise power kTB in dBm for a bandwidth
// of bw Hz at T = 290 K: -174 dBm/Hz + 10 log10(bw). This sets the noise
// floor that makes MilBack's higher-rate (wider-bandwidth) uplink modes
// noisier: 40 Mbps runs 6 dB above 10 Mbps (§9.5).
func ThermalNoiseDBm(bw float64) float64 {
	if bw <= 0 {
		panic(fmt.Sprintf("rfsim: noise bandwidth must be positive, got %g", bw))
	}
	return -174 + 10*math.Log10(bw)
}

// DBmToWatts converts dBm to watts.
func DBmToWatts(dbm float64) float64 { return math.Pow(10, (dbm-30)/10) }
