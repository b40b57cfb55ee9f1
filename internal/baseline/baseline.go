package baseline

// Capabilities is the Table 1 feature matrix row.
type Capabilities struct {
	Uplink       bool
	Localization bool
	Downlink     bool
	Orientation  bool
}

// System describes one comparison system.
type System struct {
	Name  string
	Venue string
	Caps  Capabilities
	// EnergyPerBitJ is the published communication energy efficiency in
	// joules per bit (0 if the system does not communicate).
	EnergyPerBitJ float64
	// MaxUplinkBps / MaxDownlinkBps are the published peak data rates.
	MaxUplinkBps, MaxDownlinkBps float64
	// PowerW is the node/tag power draw during its primary operation.
	PowerW float64
}

// Score returns the number of Table-1 capabilities the system provides.
func (s System) Score() int {
	n := 0
	for _, b := range []bool{s.Caps.Uplink, s.Caps.Localization, s.Caps.Downlink, s.Caps.Orientation} {
		if b {
			n++
		}
	}
	return n
}

// MmTag returns mmTag [35]: uplink-only mmWave backscatter at 2.4 nJ/bit.
func MmTag() System {
	return System{
		Name:          "mmTag",
		Venue:         "SIGCOMM 2021",
		Caps:          Capabilities{Uplink: true},
		EnergyPerBitJ: 2.4e-9,
		MaxUplinkBps:  100e6,
		PowerW:        240e-3,
	}
}

// Millimetro returns Millimetro [45]: localization-only retro-reflective
// tags.
func Millimetro() System {
	return System{
		Name:   "Millimetro",
		Venue:  "MobiCom 2021",
		Caps:   Capabilities{Localization: true},
		PowerW: 3e-6,
	}
}

// OmniScatter returns OmniScatter [12]: uplink + localization via commodity
// FMCW radar.
func OmniScatter() System {
	return System{
		Name:          "OmniScatter",
		Venue:         "MobiSys 2022",
		Caps:          Capabilities{Uplink: true, Localization: true},
		EnergyPerBitJ: 10e-9,
		MaxUplinkBps:  4e6,
		PowerW:        40e-6,
	}
}

// MilBack returns this paper's system with its §9.6 figures: uplink,
// downlink, localization and orientation sensing; 32 mW / 40 Mbps uplink
// (0.8 nJ/bit) and 18 mW / 36 Mbps downlink (0.5 nJ/bit).
func MilBack() System {
	return System{
		Name:           "MilBack",
		Venue:          "SIGCOMM 2023",
		Caps:           Capabilities{Uplink: true, Localization: true, Downlink: true, Orientation: true},
		EnergyPerBitJ:  0.8e-9, // uplink figure; downlink is 0.5 nJ/bit
		MaxUplinkBps:   160e6,
		MaxDownlinkBps: 36e6,
		PowerW:         32e-3,
	}
}

// Table1 returns the comparison set in the paper's row order.
func Table1() []System {
	return []System{MmTag(), Millimetro(), OmniScatter(), MilBack()}
}

// OnlyFullFeatured returns the systems providing all four capabilities —
// the paper's claim is that MilBack is the only one.
func OnlyFullFeatured(systems []System) []System {
	var out []System
	for _, s := range systems {
		if s.Score() == 4 {
			out = append(out, s)
		}
	}
	return out
}
