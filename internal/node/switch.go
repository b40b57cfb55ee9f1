package node

import (
	"fmt"

	"repro/internal/fsa"
)

// Switch models an ADRF5020-class SPDT RF switch: it connects an FSA port
// either to the ground plane (reflective) or to the envelope detector
// (absorptive) and enforces its maximum toggle rate — the limit behind
// MilBack's 160 Mbps uplink ceiling (§9.5: "This rate is limited by
// switching speed of the node's switches").
type Switch struct {
	// MaxToggleRateHz is the fastest sustained switching rate.
	MaxToggleRateHz float64

	state fsa.Mode
}

// DefaultSwitch returns an ADRF5020-class switch. 160 Mbps of OAQFM uplink
// needs each port switch to toggle at up to 80 MHz (one potential transition
// per symbol edge per tone).
func DefaultSwitch() *Switch {
	return &Switch{MaxToggleRateHz: 100e6, state: fsa.Reflective}
}

// State returns the current switch position.
func (s *Switch) State() fsa.Mode { return s.state }

// Set moves the switch to the requested position.
func (s *Switch) Set(m fsa.Mode) {
	if m != fsa.Reflective && m != fsa.Absorptive {
		panic(fmt.Sprintf("node: invalid switch target %d", int(m)))
	}
	s.state = m
}

// CanSustainSymbolRate reports whether the switch can keep up with an OAQFM
// symbol rate of rateHz (worst case: one transition per symbol boundary).
func (s *Switch) CanSustainSymbolRate(rateHz float64) bool {
	if rateHz <= 0 {
		panic(fmt.Sprintf("node: non-positive symbol rate %g", rateHz))
	}
	return rateHz <= s.MaxToggleRateHz
}
