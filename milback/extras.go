package milback

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/proto"
	"repro/internal/waveform"
)

// Detection is one node found by a discovery scan.
type Detection struct {
	// RangeM, AzimuthDeg and X, Y locate the detection.
	RangeM, AzimuthDeg float64
	X, Y               float64
	// SNRdB is the detection strength.
	SNRdB float64
}

// BestUplinkRate measures the node's current link budget at its serving AP
// and returns the fastest standard rate (5–160 Mbps ladder) that sustains
// BER ≤ 1e-6. The bool reports whether even the slowest rate meets the
// target. It can return ErrUnknownNode, ErrCancelled and ErrClosed.
func (c *Cluster) BestUplinkRate(ctx context.Context, id NodeID) (float64, bool, error) {
	cn, err := c.lockNode(id)
	if err != nil {
		return 0, false, err
	}
	defer cn.mu.Unlock()
	var (
		rate float64
		ok   bool
	)
	err = c.aps[cn.ap].eng.Run(ctx, int(cn.id), func(context.Context) (proto.JobReport, error) {
		rate, ok = cn.sess.AdaptUplink()
		return proto.JobReport{}, nil
	})
	if err != nil {
		return 0, false, fmt.Errorf("milback: %w", err)
	}
	return rate, ok, nil
}

// CellStats summarizes one SDM superframe over the whole cluster.
type CellStats struct {
	// PerNodeDeliveredBits lists error-free payload bits per node: each
	// live AP's nodes in join order, APs in layout order.
	PerNodeDeliveredBits []int
	// AggregateThroughputBps is total delivered bits over total airtime.
	AggregateThroughputBps float64
	// Fairness is Jain's index over per-node delivered bits.
	Fairness float64
	// TotalAirtimeS is the superframe duration, summed over APs.
	TotalAirtimeS float64
}

// RunUplinkSuperframe has every live AP, in layout order, serve each node it
// homes `rounds` times round-robin, each slot carrying payloadBytes uplink
// at bitRate, and returns the cluster's throughput and fairness — the §7
// SDM claim quantified. A failed slot (blocked node, dead link) delivers
// nothing but still costs the packet preamble's airtime; one broken node
// must not stall the cell. APs without nodes are skipped; a cluster without
// nodes is an error. Cancellation between slots abandons the remaining
// schedule and returns ErrCancelled.
func (c *Cluster) RunUplinkSuperframe(ctx context.Context, payloadBytes, rounds int, bitRate float64) (CellStats, error) {
	if payloadBytes < 1 || rounds < 1 {
		return CellStats{}, fmt.Errorf("milback: invalid superframe args bytes=%d rounds=%d", payloadBytes, rounds)
	}
	if err := checkRate(bitRate); err != nil {
		return CellStats{}, err
	}
	payload := make([]byte, payloadBytes)
	for i := range payload {
		payload[i] = byte(i * 37)
	}
	spec := waveform.DefaultPacketSpec(waveform.Uplink, 0)
	preambleS := spec.Field1Duration() + spec.Field2Duration()

	// Group the nodes by serving AP, in layout order and NodeID order within
	// an AP; a removed AP has no nodes left, so it serves no slots.
	homed := make([][]NodeID, len(c.aps))
	for _, cn := range c.snapshot() {
		cn.mu.Lock()
		homed[cn.ap] = append(homed[cn.ap], cn.id)
		cn.mu.Unlock()
	}
	var (
		out       CellStats
		totalBits float64
	)
	for _, ids := range homed {
		bits := make([]int, len(ids))
		airtime := make([]float64, len(ids))
		for r := 0; r < rounds; r++ {
			for i, id := range ids {
				ex, err := c.exchange(ctx, id, waveform.Uplink, payload, bitRate)
				if err != nil {
					if errors.Is(err, ErrCancelled) || errors.Is(err, ErrClosed) {
						return CellStats{}, err
					}
					airtime[i] += preambleS
					continue
				}
				airtime[i] += ex.AirtimeS
				bits[i] += ex.BitsSent - ex.BitErrors
			}
		}
		// Airtime sums per node, then per AP, then over the cluster: the
		// order of these float sums is part of the recorded golden values.
		var cellAirtime float64
		for i, b := range bits {
			cellAirtime += airtime[i]
			totalBits += float64(b)
		}
		out.TotalAirtimeS += cellAirtime
		out.PerNodeDeliveredBits = append(out.PerNodeDeliveredBits, bits...)
	}
	if len(out.PerNodeDeliveredBits) == 0 {
		return CellStats{}, errors.New("milback: superframe over an empty cluster")
	}
	if out.TotalAirtimeS > 0 {
		out.AggregateThroughputBps = totalBits / out.TotalAirtimeS
	}
	var sumX2 float64
	for _, b := range out.PerNodeDeliveredBits {
		sumX2 += float64(b) * float64(b)
	}
	if sumX2 > 0 {
		out.Fairness = totalBits * totalBits / (float64(len(out.PerNodeDeliveredBits)) * sumX2)
	}
	return out, nil
}
