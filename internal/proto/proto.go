package proto

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/waveform"
)

// PacketOutcome reports one full Fig-8 packet exchange.
type PacketOutcome struct {
	// Direction the node decoded from Field 1 (must match the request).
	Direction waveform.Direction
	// NodeOrientation is the node-side estimate from Field 1 (§5.2b).
	NodeOrientation node.OrientationResult
	// Localization is the AP-side outcome of Field 2 (§5.1/§5.2a).
	Localization core.LocalizationOutcome
	// Payload is the received payload (at the node for downlink, at the AP
	// for uplink).
	Payload []byte
	// BitErrors and BitsSent describe payload integrity.
	BitErrors, BitsSent int
	// LinkQualityDB is the payload link quality: SINR at the node for
	// downlink, link-budget SNR at the AP for uplink.
	LinkQualityDB float64
	// AirtimeS is the total packet duration.
	AirtimeS float64
	// NodeEnergyJ is the node-side energy spent on the packet.
	NodeEnergyJ float64
}

// BER returns the payload bit error rate.
func (p PacketOutcome) BER() float64 {
	if p.BitsSent == 0 {
		return 0
	}
	return float64(p.BitErrors) / float64(p.BitsSent)
}

// Session is the AP's per-node protocol state. Each session owns its seed
// stream: operation k of session i draws the same noise whatever any other
// session does, which is what makes concurrent exchanges deterministic.
// Session methods run on the caller's goroutine; the caller serializes them
// against every other capture on the system, typically by running each one
// as an Engine job.
type Session struct {
	sys      *core.System
	node     *node.Node
	rng      SeedStream
	frameSeq int
}

// NewSession binds a node to the system's AP with the given stream seed.
func NewSession(sys *core.System, n *node.Node, seed int64) (*Session, error) {
	if sys == nil || n == nil {
		return nil, fmt.Errorf("proto: nil system or node")
	}
	return &Session{sys: sys, node: n, rng: NewSeedStream(seed)}, nil
}

// Node returns the session's node.
func (s *Session) Node() *node.Node { return s.node }

// nextSeed draws the session's next deterministic operation seed.
func (s *Session) nextSeed() int64 {
	return s.rng.Next()
}

// localizationSwitchRate is the node's Field-2 toggle rate (§5.1: 10 kHz).
const localizationSwitchRate = 10e3

// Coding selects how a transfer protects its payload. The zero Coding
// sends the payload raw in one packet. Any other value CRC-frames it
// (Frame) and runs up to max(1, MaxAttempts) packets, stop-and-wait: a
// packet that fails or whose frame fails its CRC is retransmitted. FEC
// Hamming(7,4)-codes the frame with a depth-8 interleaver (fecDepth) before
// each packet, so isolated channel bit errors are corrected without a
// retransmission.
type Coding struct {
	FEC         bool
	MaxAttempts int
}

// fecDepth is the interleaver depth of an FEC-coded transfer.
const fecDepth = 8

// TransferOutcome reports one transfer. The embedded PacketOutcome holds
// the last completed packet's Direction, NodeOrientation, Localization and
// LinkQualityDB; its Payload is the delivered data (the verified frame
// payload when framed); BitErrors, BitsSent, AirtimeS and NodeEnergyJ sum
// over the completed packets, counting the wire bits (frame and FEC code
// included) and the bit errors before any correction.
type TransferOutcome struct {
	PacketOutcome
	// Attempts counts packets that ran to an outcome, the delivering one
	// included; a packet abandoned on cancellation does not count.
	Attempts int
	// Corrections sums the bits FEC corrected over all attempts.
	Corrections int
}

// Transfer moves data in direction dir at rate bits/s under the given
// coding (see Coding), on the caller's goroutine. ctx is checked between
// packet phases (Field 1, Field 2, payload): a dead context abandons the
// transfer with ErrCancelled wrapping the context error, and the outcome
// still reports the attempts that completed. A transfer of one attempt
// returns that packet's error; one of several wraps the last attempt's
// error with the attempt count.
func (s *Session) Transfer(ctx context.Context, dir waveform.Direction, data []byte, rate float64, c Coding) (TransferOutcome, error) {
	if len(data) == 0 {
		return TransferOutcome{}, fmt.Errorf("proto: empty payload")
	}
	if !(rate > 0) {
		return TransferOutcome{}, fmt.Errorf("proto: rate must be positive, got %g", rate)
	}
	framed := c != Coding{}
	attempts := max(1, c.MaxAttempts)
	payload := data
	var (
		seq                uint8
		wireBits, codedLen int
	)
	if framed {
		seq = s.nextFrameSeq()
		wire, err := Frame{Seq: seq, Flags: FlagFinal, Payload: data}.Encode()
		if err != nil {
			return TransferOutcome{}, err
		}
		payload = wire
		if c.FEC {
			bits := waveform.BytesToBits(wire)
			coded, err := FECEncode(bits, fecDepth)
			if err != nil {
				return TransferOutcome{}, err
			}
			wireBits, codedLen = len(bits), len(coded)
			// Pad the coded stream to whole bytes for the packet payload.
			for len(coded)%8 != 0 {
				coded = append(coded, false)
			}
			payload = waveform.BitsToBytes(coded)
		}
	}
	var (
		res     TransferOutcome
		lastErr error
	)
	for res.Attempts < attempts {
		out, err := s.runPacket(ctx, dir, payload, rate)
		if errors.Is(err, ErrCancelled) {
			return res, err
		}
		res.Attempts++
		if err != nil {
			lastErr = err
			continue
		}
		res.Direction = out.Direction
		res.NodeOrientation = out.NodeOrientation
		res.Localization = out.Localization
		res.LinkQualityDB = out.LinkQualityDB
		res.AirtimeS += out.AirtimeS
		res.NodeEnergyJ += out.NodeEnergyJ
		res.BitsSent += out.BitsSent
		res.BitErrors += out.BitErrors
		if !framed {
			res.Payload = out.Payload
			return res, nil
		}
		rx := out.Payload
		if c.FEC {
			rxBits := waveform.BytesToBits(rx)
			if len(rxBits) < codedLen {
				lastErr = fmt.Errorf("proto: FEC payload truncated (%d of %d coded bits)", len(rxBits), codedLen)
				continue
			}
			decoded, corrections, err := FECDecode(rxBits[:codedLen], fecDepth, wireBits)
			res.Corrections += corrections
			if err != nil {
				lastErr = err
				continue
			}
			rx = waveform.BitsToBytes(decoded)
		}
		got, err := DecodeFrame(rx)
		if err != nil {
			if c.FEC {
				err = fmt.Errorf("proto: residual errors after FEC: %w", err)
			}
			lastErr = err
			continue
		}
		if got.Seq != seq {
			lastErr = fmt.Errorf("proto: sequence mismatch (got %d, want %d)", got.Seq, seq)
			continue
		}
		res.Payload = got.Payload
		return res, nil
	}
	if attempts == 1 {
		return res, lastErr
	}
	return res, fmt.Errorf("proto: transfer failed after %d attempts: %w", attempts, lastErr)
}

// runPacket executes one complete packet on the caller's goroutine.
// For downlink, payload is what the AP sends and the outcome's Payload is
// what the node decoded; for uplink, payload is the node's data and the
// outcome's Payload is what the AP decoded. rate is the payload data rate
// in bits/s. ctx is checked between the packet phases (Field 1, Field 2,
// payload): a cancellation mid-packet abandons the remainder and returns
// ErrCancelled wrapping the context error; the session's seed stream still
// advances past the abandoned phases' draws only up to the point reached.
func (s *Session) runPacket(ctx context.Context, dir waveform.Direction, payload []byte, rate float64) (PacketOutcome, error) {
	if err := ctx.Err(); err != nil {
		return PacketOutcome{}, fmt.Errorf("%w: %w", ErrCancelled, err)
	}
	spec := waveform.DefaultPacketSpec(dir, 0)

	// ---- Field 1: direction announcement + node-side orientation ----
	// The Field-1 trace is a node-side sampling (no chirp capture at the
	// AP), but it still flows through the capture plane: the lease steers
	// the horns at the node and owns the phase's noise stream.
	lease := s.sys.Capture().Acquire(s.node.AzimuthRad(), s.nextSeed())
	defer lease.Close()
	ns := lease.Noise
	apCfg := s.sys.Config().AP
	trace := s.node.Field1Trace(spec, s.sys.EffectiveTxPowerW(s.node), apCfg.TxGainDBi, ns)
	chirpSamples := spec.OrientationChirp.SampleCount(s.node.Config().ADCSampleRateHz)
	gotDir, err := node.DetectDirection(trace, chirpSamples)
	if err != nil {
		return PacketOutcome{}, fmt.Errorf("proto: field 1: %w", err)
	}
	if gotDir != dir {
		return PacketOutcome{}, fmt.Errorf("proto: node decoded direction %v, AP sent %v", gotDir, dir)
	}
	nodeOri, err := s.sys.SenseOrientationAtNode(s.node, s.nextSeed())
	if err != nil {
		return PacketOutcome{}, fmt.Errorf("proto: field 1 orientation: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return PacketOutcome{}, fmt.Errorf("%w: %w", ErrCancelled, err)
	}

	// ---- Field 2: AP localization + orientation ----
	loc, err := s.sys.Localize(s.node, s.nextSeed())
	if err != nil {
		return PacketOutcome{}, fmt.Errorf("proto: field 2: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return PacketOutcome{}, fmt.Errorf("%w: %w", ErrCancelled, err)
	}

	// ---- Payload ----
	out := PacketOutcome{
		Direction:       dir,
		NodeOrientation: nodeOri,
		Localization:    loc,
	}
	var payloadS float64
	switch dir {
	case waveform.Downlink:
		res, err := s.sys.Downlink(s.node, loc.OrientationDeg, payload, rate/2, s.nextSeed())
		if err != nil {
			return PacketOutcome{}, fmt.Errorf("proto: payload: %w", err)
		}
		out.Payload = res.Data
		out.BitErrors = res.BitErrors
		out.BitsSent = res.BitsSent
		out.LinkQualityDB = res.SINRdB
		payloadS = float64(res.BitsSent) / rate
	case waveform.Uplink:
		res, err := s.sys.Uplink(s.node, loc.OrientationDeg, payload, rate, s.nextSeed())
		if err != nil {
			return PacketOutcome{}, fmt.Errorf("proto: payload: %w", err)
		}
		out.Payload = res.Data
		out.BitErrors = res.BitErrors
		out.BitsSent = res.BitsSent
		out.LinkQualityDB = res.SNRdB
		payloadS = float64(res.BitsSent) / rate
	default:
		return PacketOutcome{}, fmt.Errorf("proto: unknown direction %v", dir)
	}

	// ---- Accounting ----
	f1 := spec.Field1Duration()
	f2 := spec.Field2Duration()
	out.AirtimeS = f1 + f2 + payloadS
	pm := s.node.Power
	energy := pm.Power(node.ModeDownlink, 0) * f1 // listening with detectors on
	energy += pm.Power(node.ModeLocalization, localizationSwitchRate) * f2
	if dir == waveform.Uplink {
		energy += pm.Power(node.ModeUplink, node.UplinkToggleRate(rate)) * payloadS
	} else {
		energy += pm.Power(node.ModeDownlink, 0) * payloadS
	}
	out.NodeEnergyJ = energy
	return out, nil
}

// Localize runs the AP-side §5 localization pipeline against the
// session's node under the session's next seed.
func (s *Session) Localize() (core.LocalizationOutcome, error) {
	return s.sys.Localize(s.node, s.nextSeed())
}

// SenseOrientation runs the node-side §5.2b orientation estimation under
// the session's next seed.
func (s *Session) SenseOrientation() (node.OrientationResult, error) {
	return s.sys.SenseOrientationAtNode(s.node, s.nextSeed())
}

// MeasureVelocity runs a Doppler burst of nChirps against the session's
// node under the session's next seed, with the synthesized ground-truth
// range rate taken from the node's trajectory sample (zero for unbound
// nodes). It returns the estimated radial velocity in m/s, positive
// receding.
func (s *Session) MeasureVelocity(nChirps int) (float64, error) {
	return s.sys.MeasureTrajectoryVelocity(s.node, nChirps, s.nextSeed())
}
