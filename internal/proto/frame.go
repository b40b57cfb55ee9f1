package proto

import (
	"encoding/binary"
	"fmt"
)

// Frame is the link-layer unit MilBack payloads travel in when integrity
// matters: a 4-byte header (sequence number, flags, payload length), the
// payload, and a CRC-16/CCITT trailer. The paper fixes the payload length
// per deployment ("the length of the payload is predefined", §7); framing
// with a checksum is the natural downstream extension that lets the AP and
// node detect residual bit errors and drive retransmissions.
type Frame struct {
	Seq     uint8
	Flags   uint8
	Payload []byte
}

// Frame flags.
const (
	// FlagAck marks an acknowledgement frame.
	FlagAck uint8 = 1 << iota
	// FlagFinal marks the last frame of a message.
	FlagFinal
)

const frameOverhead = 4 + 2 // header + CRC

// MaxFramePayload bounds a single frame's payload.
const MaxFramePayload = 0xFFFF

// crc16CCITT computes CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF).
func crc16CCITT(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// Encode serializes the frame.
func (f Frame) Encode() ([]byte, error) {
	if len(f.Payload) > MaxFramePayload {
		return nil, fmt.Errorf("proto: frame payload %d exceeds %d", len(f.Payload), MaxFramePayload)
	}
	out := make([]byte, 0, len(f.Payload)+frameOverhead)
	out = append(out, f.Seq, f.Flags)
	out = binary.BigEndian.AppendUint16(out, uint16(len(f.Payload)))
	out = append(out, f.Payload...)
	out = binary.BigEndian.AppendUint16(out, crc16CCITT(out))
	return out, nil
}

// DecodeFrame parses and integrity-checks a frame. It returns an error on
// truncation, length mismatch, or CRC failure — the signal that triggers a
// retransmission.
func DecodeFrame(data []byte) (Frame, error) {
	if len(data) < frameOverhead {
		return Frame{}, fmt.Errorf("proto: frame truncated (%d bytes)", len(data))
	}
	n := int(binary.BigEndian.Uint16(data[2:4]))
	if len(data) != n+frameOverhead {
		return Frame{}, fmt.Errorf("proto: frame length %d does not match header %d", len(data)-frameOverhead, n)
	}
	want := binary.BigEndian.Uint16(data[len(data)-2:])
	if got := crc16CCITT(data[:len(data)-2]); got != want {
		return Frame{}, fmt.Errorf("proto: CRC mismatch (got %04x, want %04x)", got, want)
	}
	return Frame{
		Seq:     data[0],
		Flags:   data[1],
		Payload: append([]byte(nil), data[4:4+n]...),
	}, nil
}

// maxSeq wraps the 8-bit sequence space.
const maxSeq = 256

// nextFrameSeq increments the session's frame sequence number.
func (s *Session) nextFrameSeq() uint8 {
	s.frameSeq = (s.frameSeq + 1) % maxSeq
	return uint8(s.frameSeq)
}
