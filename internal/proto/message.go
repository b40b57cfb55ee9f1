package proto

import (
	"context"
	"fmt"

	"repro/internal/waveform"
)

// MessageResult reports a fragmented, reliable message transfer.
type MessageResult struct {
	// Data is the reassembled message.
	Data []byte
	// Fragments is how many frames the message was split into.
	Fragments int
	// TotalAttempts counts packet transmissions across all fragments,
	// including retransmissions.
	TotalAttempts int
	// TotalAirtimeS and NodeEnergyJ sum over every attempt.
	TotalAirtimeS float64
	NodeEnergyJ   float64
}

// SendMessage transfers a message of arbitrary size by splitting it into
// mtu-byte fragments, each carried as a CRC-framed packet with stop-and-wait
// ARQ (maxAttemptsPerFragment tries each). Fragments reassemble in order;
// the last one carries FlagFinal. A fragment that exhausts its attempts
// aborts the whole message — MilBack packets are scheduled by the AP, so
// there is no point blasting later fragments into a dead link. ctx is
// checked between attempts and packet phases (see SendReliableContext).
func (s *Session) SendMessage(ctx context.Context, dir waveform.Direction, data []byte, rate float64,
	mtu, maxAttemptsPerFragment int) (MessageResult, error) {
	if len(data) == 0 {
		return MessageResult{}, fmt.Errorf("proto: empty message")
	}
	if mtu < 1 || mtu > MaxFramePayload {
		return MessageResult{}, fmt.Errorf("proto: mtu %d outside [1, %d]", mtu, MaxFramePayload)
	}
	if maxAttemptsPerFragment < 1 {
		return MessageResult{}, fmt.Errorf("proto: maxAttemptsPerFragment must be >= 1, got %d", maxAttemptsPerFragment)
	}
	var res MessageResult
	for off := 0; off < len(data); off += mtu {
		end := off + mtu
		if end > len(data) {
			end = len(data)
		}
		frag := data[off:end]
		fr, err := s.SendReliableContext(ctx, dir, frag, rate, maxAttemptsPerFragment)
		res.TotalAttempts += fr.Attempts
		res.TotalAirtimeS += fr.TotalAirtimeS
		res.NodeEnergyJ += fr.NodeEnergyJ
		if err != nil {
			return res, fmt.Errorf("proto: fragment %d: %w", res.Fragments, err)
		}
		res.Data = append(res.Data, fr.Data...)
		res.Fragments++
	}
	return res, nil
}

// FragmentCount returns how many fragments a message of n bytes needs at
// the given MTU.
func FragmentCount(n, mtu int) int {
	if n <= 0 || mtu <= 0 {
		return 0
	}
	return (n + mtu - 1) / mtu
}
