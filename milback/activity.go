package milback

import (
	"fmt"

	"repro/internal/node"
)

// Activity is a node activity class for power accounting (§9.6).
type Activity int

const (
	// ActivityIdle: switches parked, detectors biased off.
	ActivityIdle Activity = iota
	// ActivityLocalization: ports toggling at the 10 kHz localization rate
	// during the packet preamble.
	ActivityLocalization
	// ActivityDownlink: both ports absorptive, detectors and ADC active.
	ActivityDownlink
	// ActivityUplink: ports toggling at the symbol rate (tens of MHz).
	ActivityUplink
)

// String implements fmt.Stringer.
func (a Activity) String() string {
	switch a {
	case ActivityIdle:
		return "idle"
	case ActivityLocalization:
		return "localization"
	case ActivityDownlink:
		return "downlink"
	case ActivityUplink:
		return "uplink"
	default:
		return fmt.Sprintf("Activity(%d)", int(a))
	}
}

// ParseActivity maps an activity name ("idle", "localization", "downlink",
// "uplink") to its Activity value.
func ParseActivity(s string) (Activity, error) {
	switch s {
	case "idle":
		return ActivityIdle, nil
	case "localization":
		return ActivityLocalization, nil
	case "downlink":
		return ActivityDownlink, nil
	case "uplink":
		return ActivityUplink, nil
	default:
		return 0, fmt.Errorf("milback: unknown activity %q", s)
	}
}

// Power returns the node's power consumption in watts for an activity.
// bitRate is required (positive) for ActivityUplink, where the switches
// toggle at the symbol rate, and ignored otherwise. See §9.6. It can return
// ErrUnknownNode.
func (c *Cluster) Power(id NodeID, a Activity, bitRate float64) (float64, error) {
	cn, err := c.lockNode(id)
	if err != nil {
		return 0, err
	}
	defer cn.mu.Unlock()
	n := cn.sess.Node()
	switch a {
	case ActivityIdle:
		return n.ModePower(node.ModeIdle, 0), nil
	case ActivityLocalization:
		return n.ModePower(node.ModeLocalization, 10e3), nil
	case ActivityDownlink:
		return n.ModePower(node.ModeDownlink, 0), nil
	case ActivityUplink:
		if bitRate <= 0 {
			return 0, fmt.Errorf("milback: uplink power needs a positive bit rate")
		}
		return n.ModePower(node.ModeUplink, node.UplinkToggleRate(bitRate)), nil
	default:
		return 0, fmt.Errorf("milback: unknown activity %v", a)
	}
}
