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

// ReliableExchange reports a CRC-checked, retransmitted transfer.
type ReliableExchange struct {
	// Data is the verified payload.
	Data []byte
	// Attempts counts transmissions including the successful one.
	Attempts int
	// AirtimeS and NodeEnergyJ sum over all attempts.
	AirtimeS    float64
	NodeEnergyJ float64
}

// SendReliable transfers data node→AP with CRC-16 framing and
// stop-and-wait ARQ: corrupted packets are detected and retransmitted up to
// maxAttempts. The whole transaction (retransmissions included) occupies
// one scheduler slot at the node's serving AP; cancellation between
// attempts abandons the transfer with ErrCancelled. It can also return
// ErrUnknownNode, ErrNoDetection, ErrOutOfBand and ErrClosed.
func (c *Cluster) SendReliable(ctx context.Context, id NodeID, data []byte, bitRate float64, maxAttempts int) (ReliableExchange, error) {
	return c.reliable(ctx, id, waveform.Uplink, data, bitRate, maxAttempts)
}

// DeliverReliable transfers data AP→node with the same integrity
// machinery as SendReliable.
func (c *Cluster) DeliverReliable(ctx context.Context, id NodeID, data []byte, bitRate float64, maxAttempts int) (ReliableExchange, error) {
	return c.reliable(ctx, id, waveform.Downlink, data, bitRate, maxAttempts)
}

func (c *Cluster) reliable(ctx context.Context, id NodeID, dir waveform.Direction, data []byte, bitRate float64, maxAttempts int) (ReliableExchange, error) {
	cn, err := c.lockNode(id)
	if err != nil {
		return ReliableExchange{}, err
	}
	defer cn.mu.Unlock()
	var res proto.ReliableResult
	err = c.aps[cn.ap].net.RunSessionJobContext(ctx, cn.sess, func(ctx context.Context) (proto.JobReport, error) {
		var err error
		res, err = cn.sess.SendReliableContext(ctx, dir, data, bitRate, maxAttempts)
		if err != nil {
			return proto.JobReport{}, err
		}
		return proto.JobReport{
			Exchange:  true,
			BitsSent:  res.BitsSent,
			BitErrors: res.BitErrors,
			AirtimeS:  res.TotalAirtimeS,
		}, nil
	})
	if err != nil {
		return ReliableExchange{Attempts: res.Attempts}, fmt.Errorf("milback: %w", err)
	}
	return ReliableExchange{
		Data:        res.Data,
		Attempts:    res.Attempts,
		AirtimeS:    res.TotalAirtimeS,
		NodeEnergyJ: res.NodeEnergyJ,
	}, nil
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
	err = c.aps[cn.ap].net.RunSessionJobContext(ctx, cn.sess, func(context.Context) (proto.JobReport, error) {
		var err error
		rate, ok, err = cn.sess.AdaptUplink(proto.DefaultRateController())
		return proto.JobReport{}, err
	})
	if err != nil {
		return 0, false, fmt.Errorf("milback: %w", err)
	}
	return rate, ok, nil
}

// SendFEC transfers data node→AP in a single packet protected by
// Hamming(7,4) forward error correction with depth-8 interleaving: isolated
// channel bit errors are corrected without the airtime cost of a
// retransmission. Returns the verified payload and the number of corrected
// bits; residual errors surface as an error (the frame CRC catches them).
func (c *Cluster) SendFEC(ctx context.Context, id NodeID, data []byte, bitRate float64) ([]byte, int, error) {
	return c.fec(ctx, id, waveform.Uplink, data, bitRate)
}

// DeliverFEC is SendFEC for the AP→node direction.
func (c *Cluster) DeliverFEC(ctx context.Context, id NodeID, data []byte, bitRate float64) ([]byte, int, error) {
	return c.fec(ctx, id, waveform.Downlink, data, bitRate)
}

func (c *Cluster) fec(ctx context.Context, id NodeID, dir waveform.Direction, data []byte, bitRate float64) ([]byte, int, error) {
	cn, err := c.lockNode(id)
	if err != nil {
		return nil, 0, err
	}
	defer cn.mu.Unlock()
	var (
		got         []byte
		corrections int
	)
	err = c.aps[cn.ap].net.RunSessionJobContext(ctx, cn.sess, func(ctx context.Context) (proto.JobReport, error) {
		var err error
		got, corrections, err = cn.sess.SendFECContext(ctx, dir, data, bitRate, 8)
		if err != nil {
			return proto.JobReport{}, err
		}
		// The FEC transfer is one packet; its channel accounting (wire
		// bits, pre-correction errors, airtime) is in the session's cached
		// outcome, which the scheduler slot serializes access to.
		last := cn.sess.LastOutcome
		return proto.JobReport{
			Exchange:  true,
			BitsSent:  last.BitsSent,
			BitErrors: last.BitErrors,
			AirtimeS:  last.AirtimeS,
		}, nil
	})
	if err != nil {
		return nil, corrections, fmt.Errorf("milback: %w", err)
	}
	return got, corrections, nil
}

// CellStats summarizes one SDM superframe over the whole cluster.
type CellStats struct {
	// PerNodeDeliveredBits lists error-free payload bits per node: each
	// live AP's nodes in join order, APs in ring order.
	PerNodeDeliveredBits []int
	// AggregateThroughputBps is total delivered bits over total airtime.
	AggregateThroughputBps float64
	// Fairness is Jain's index over per-node delivered bits.
	Fairness float64
	// TotalAirtimeS is the superframe duration, summed over APs.
	TotalAirtimeS float64
}

// RunUplinkSuperframe has every live AP, in ring order, serve each node it
// homes `rounds` times round-robin, each slot carrying payloadBytes uplink
// at bitRate, and returns the cluster's throughput and fairness — the §7
// SDM claim quantified. APs without nodes are skipped; a cluster without
// nodes is an error. Cancellation between slots abandons the remaining
// schedule and returns ErrCancelled.
func (c *Cluster) RunUplinkSuperframe(ctx context.Context, payloadBytes, rounds int, bitRate float64) (CellStats, error) {
	var (
		out       CellStats
		totalBits float64
	)
	err := c.eachLiveCell(func(cell *apCell) error {
		if len(cell.net.Sessions()) == 0 {
			return nil
		}
		res, err := cell.net.RunSuperframeContext(ctx, waveform.Uplink, payloadBytes, rounds, bitRate)
		if err != nil {
			return err
		}
		out.TotalAirtimeS += res.TotalAirtimeS
		for _, st := range res.PerNode {
			out.PerNodeDeliveredBits = append(out.PerNodeDeliveredBits, st.DeliveredBits)
			totalBits += float64(st.DeliveredBits)
		}
		return nil
	})
	if err != nil {
		return CellStats{}, err
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
