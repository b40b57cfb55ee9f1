package loadgen

import (
	"math"
	"testing"
)

// FuzzParseMix checks every spec ParseMix accepts: the fractions total to a
// finite positive number, Pick only ever returns a kind with a positive
// fraction, and String renders a spec that parses back to the same
// normalized mix (within String's three significant digits).
func FuzzParseMix(f *testing.F) {
	for _, seed := range []string{
		"localize=0.6,send=0.2,deliver=0.1,move=0.1",
		"localize=1",
		"send=3, move=1",
		"localize=1,send=1,deliver=1",
		"localize=NaN",
		"localize=Inf,send=1",
		"send=1e308,move=1e308",
		"deliver=5e-324,send=1e308",
	} {
		f.Add(seed, uint64(0))
		f.Add(seed, ^uint64(0))
	}
	f.Fuzz(func(t *testing.T, spec string, draw uint64) {
		m, err := ParseMix(spec)
		if err != nil {
			return
		}
		total := m.total()
		if !(total > 0) || math.IsInf(total, 0) {
			t.Fatalf("ParseMix(%q) accepted total %g", spec, total)
		}
		fracs := [numOps]float64{m.Localize, m.Send, m.Deliver, m.Move}
		// A uniform draw in [0, 1), reaching up to 1-2⁻⁵³.
		u := float64(draw>>11) / (1 << 53)
		if k := m.Pick(u); !(fracs[k] > 0) {
			t.Fatalf("ParseMix(%q).Pick(%v) = %v, whose fraction is %g", spec, u, k, fracs[k])
		}
		back, err := ParseMix(m.String())
		if err != nil {
			t.Fatalf("ParseMix(%q).String() = %q does not parse: %v", spec, m.String(), err)
		}
		backTotal := back.total()
		for k, got := range [numOps]float64{back.Localize, back.Send, back.Deliver, back.Move} {
			want := fracs[k] / total
			if d := math.Abs(got/backTotal - want); d > 1e-2*want+1e-320 {
				t.Fatalf("ParseMix(%q) round trip via %q: %v fraction %g, want %g",
					spec, m.String(), OpKind(k), got/backTotal, want)
			}
		}
	})
}
