package loadgen

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// OpKind names one protocol operation in a workload mix.
type OpKind int

// The operations a mix can issue, matching the Cluster session API.
const (
	OpLocalize OpKind = iota
	OpSend
	OpDeliver
	OpMove
	numOps
)

// String returns the lower-case operation name used in mix specs.
func (k OpKind) String() string {
	switch k {
	case OpLocalize:
		return "localize"
	case OpSend:
		return "send"
	case OpDeliver:
		return "deliver"
	case OpMove:
		return "move"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Mix is a workload composition: the fraction of operations of each kind.
// Fractions need not sum to 1 — Pick normalizes — but must be non-negative
// with a positive total.
type Mix struct {
	Localize float64
	Send     float64
	Deliver  float64
	Move     float64
}

// DefaultMix mirrors the paper's usage profile: localization-heavy with a
// side of data traffic (§9 runs localization continuously and pushes data
// opportunistically).
func DefaultMix() Mix {
	return Mix{Localize: 0.6, Send: 0.2, Deliver: 0.1, Move: 0.1}
}

// ParseMix reads a "kind=frac,kind=frac" spec, e.g.
// "localize=0.6,send=0.2,deliver=0.1,move=0.1". Omitted kinds get fraction
// zero; every fraction must be finite, at least one positive, and their
// total finite.
func ParseMix(spec string) (Mix, error) {
	var m Mix
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Mix{}, fmt.Errorf("loadgen: mix term %q is not kind=fraction", part)
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || !(f >= 0) || math.IsInf(f, 1) {
			return Mix{}, fmt.Errorf("loadgen: mix fraction %q must be a finite non-negative number", val)
		}
		switch strings.TrimSpace(key) {
		case "localize":
			m.Localize = f
		case "send":
			m.Send = f
		case "deliver":
			m.Deliver = f
		case "move":
			m.Move = f
		default:
			return Mix{}, fmt.Errorf("loadgen: unknown mix kind %q (want localize|send|deliver|move)", key)
		}
	}
	switch total := m.total(); {
	case total <= 0:
		return Mix{}, fmt.Errorf("loadgen: mix %q has no positive fraction", spec)
	case math.IsInf(total, 1):
		return Mix{}, fmt.Errorf("loadgen: mix %q fractions overflow their total", spec)
	}
	return m, nil
}

func (m Mix) total() float64 { return m.Localize + m.Send + m.Deliver + m.Move }

// Pick maps a uniform draw u in [0, 1) to an operation kind in proportion to
// the mix fractions. The kind order is fixed (localize, send, deliver, move)
// so a given seed always produces the same operation sequence. A draw past
// the rounded cumulative sum goes to the last kind with a positive
// fraction, never to a kind the mix leaves out.
func (m Mix) Pick(u float64) OpKind {
	total := m.total()
	var cum float64
	last := OpLocalize
	for k, f := range [numOps]float64{m.Localize, m.Send, m.Deliver, m.Move} {
		if f <= 0 {
			continue
		}
		last = OpKind(k)
		cum += f / total
		if u < cum {
			return last
		}
	}
	return last
}

// String renders the mix back in spec form with normalized fractions.
func (m Mix) String() string {
	total := m.total()
	if total <= 0 {
		return ""
	}
	return fmt.Sprintf("localize=%.3g,send=%.3g,deliver=%.3g,move=%.3g",
		m.Localize/total, m.Send/total, m.Deliver/total, m.Move/total)
}
