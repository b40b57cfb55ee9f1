package proto

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/waveform"
)

// NodeStats accumulates one node's share of a superframe.
type NodeStats struct {
	// DeliveredBits counts error-free payload bits.
	DeliveredBits int
	// ErroredBits counts payload bits that arrived flipped.
	ErroredBits int
	// AirtimeS is the node's share of channel time.
	AirtimeS float64
	// EnergyJ is the node-side energy spent.
	EnergyJ float64
	// Packets counts completed packets.
	Packets int
}

// SuperframeResult reports a multi-round SDM schedule.
type SuperframeResult struct {
	PerNode []NodeStats
	// TotalAirtimeS is the superframe duration (the AP serves one node at a
	// time, so airtimes add).
	TotalAirtimeS float64
	// AggregateThroughputBps is total delivered bits over total airtime.
	AggregateThroughputBps float64
	// Fairness is Jain's index over per-node delivered bits (1 = perfectly
	// fair).
	Fairness float64
}

// RunSuperframeContext serves every session `rounds` times in round-robin
// order (§7's SDM made into a schedule), each service moving payloadBytes
// in the given direction at the given rate. Individual packet failures
// (blocked node, dead link) are recorded as zero delivery for that slot
// rather than aborting the frame — one broken node must not stall the
// cell. Cancellation between slots abandons the remaining schedule and
// returns ErrCancelled wrapping the context error.
func (n *Network) RunSuperframeContext(ctx context.Context, dir waveform.Direction,
	payloadBytes, rounds int, rate float64) (SuperframeResult, error) {
	sessions := n.Sessions()
	if len(sessions) == 0 {
		return SuperframeResult{}, fmt.Errorf("proto: superframe over an empty network")
	}
	if payloadBytes < 1 || rounds < 1 {
		return SuperframeResult{}, fmt.Errorf("proto: invalid superframe args bytes=%d rounds=%d",
			payloadBytes, rounds)
	}
	if rate <= 0 {
		return SuperframeResult{}, fmt.Errorf("proto: rate must be positive, got %g", rate)
	}
	res := SuperframeResult{PerNode: make([]NodeStats, len(sessions))}
	payload := make([]byte, payloadBytes)
	for i := range payload {
		payload[i] = byte(i * 37)
	}
	for r := 0; r < rounds; r++ {
		for i, s := range sessions {
			out, err := n.ExchangeContext(ctx, s, dir, payload, rate)
			st := &res.PerNode[i]
			if err != nil {
				if errors.Is(err, ErrCancelled) || errors.Is(err, ErrClosed) {
					return res, err
				}
				// Failed slot: charge a nominal preamble airtime so a dead
				// node still costs schedule time.
				spec := waveform.DefaultPacketSpec(dir, 0)
				st.AirtimeS += spec.Field1Duration() + spec.Field2Duration()
				continue
			}
			st.Packets++
			st.AirtimeS += out.AirtimeS
			st.EnergyJ += out.NodeEnergyJ
			st.DeliveredBits += out.BitsSent - out.BitErrors
			st.ErroredBits += out.BitErrors
		}
	}
	var totalBits float64
	var sumX, sumX2 float64
	for _, st := range res.PerNode {
		res.TotalAirtimeS += st.AirtimeS
		totalBits += float64(st.DeliveredBits)
		sumX += float64(st.DeliveredBits)
		sumX2 += float64(st.DeliveredBits) * float64(st.DeliveredBits)
	}
	if res.TotalAirtimeS > 0 {
		res.AggregateThroughputBps = totalBits / res.TotalAirtimeS
	}
	if sumX2 > 0 {
		nf := float64(len(res.PerNode))
		res.Fairness = sumX * sumX / (nf * sumX2)
	}
	return res, nil
}
