package experiments

import (
	"fmt"

	"repro/internal/waveform"
)

// GoodputRow is one payload size of the protocol-overhead analysis.
type GoodputRow struct {
	PayloadBytes int
	Direction    waveform.Direction
	AirtimeS     float64
	GoodputBps   float64
	// Efficiency is goodput over the raw payload rate — the share of
	// airtime not eaten by the preamble.
	Efficiency float64
}

// GoodputResult quantifies the Fig 8 protocol's fixed cost: every packet
// pays ~225 µs of preamble (Field 1 + Field 2) before any payload bit
// moves, so short packets are dominated by localization overhead — the
// price of getting a fresh position fix with every exchange ("integrated
// sensing and communication" has an airtime cost, not just a benefit).
type GoodputResult struct {
	Rows []GoodputRow
	// PreambleS is the fixed per-packet preamble duration.
	PreambleS float64
}

// ExtGoodput computes effective goodput vs payload size for both directions
// at the paper's peak rates (36 Mbps down, 40 Mbps up).
func ExtGoodput(payloadBytes []int) GoodputResult {
	var out GoodputResult
	for _, dir := range []waveform.Direction{waveform.Downlink, waveform.Uplink} {
		rate := 36e6
		if dir == waveform.Uplink {
			rate = 40e6
		}
		for _, nb := range payloadBytes {
			if nb < 1 {
				panic(fmt.Sprintf("experiments: payload bytes must be >= 1, got %d", nb))
			}
			spec := waveform.DefaultPacketSpec(dir, 0)
			preamble := spec.Field1Duration() + spec.Field2Duration()
			bits := float64(nb * 8)
			airtime := preamble + bits/rate
			out.Rows = append(out.Rows, GoodputRow{
				PayloadBytes: nb,
				Direction:    dir,
				AirtimeS:     airtime,
				GoodputBps:   bits / airtime,
				Efficiency:   (bits / airtime) / rate,
			})
			out.PreambleS = preamble
		}
	}
	return out
}

// BreakEvenBytes returns the payload size at which goodput reaches half the
// raw rate (payload time equals preamble time) for the given direction.
func (r GoodputResult) BreakEvenBytes(dir waveform.Direction) int {
	rate := 36e6
	if dir == waveform.Uplink {
		rate = 40e6
	}
	return int(r.PreambleS * rate / 8)
}

// Summary renders the goodput table.
func (r GoodputResult) Summary() Table {
	t := Table{
		Title:   "Extension — protocol overhead: goodput vs payload size",
		Columns: []string{"direction", "payload (B)", "airtime (µs)", "goodput (Mbps)", "efficiency"},
		Notes: []string{
			fmt.Sprintf("fixed preamble %.0f µs per packet (Field 1 + Field 2: every packet re-localizes the node)",
				r.PreambleS*1e6),
			fmt.Sprintf("50%% efficiency break-even: ~%d B downlink, ~%d B uplink",
				r.BreakEvenBytes(waveform.Downlink), r.BreakEvenBytes(waveform.Uplink)),
		},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Direction.String(),
			fmt.Sprintf("%d", row.PayloadBytes),
			f1(row.AirtimeS * 1e6),
			f2(row.GoodputBps / 1e6),
			fmt.Sprintf("%.1f%%", row.Efficiency*100),
		})
	}
	return t
}
