package proto

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/rfsim"
	"repro/internal/waveform"
)

func TestSendMessageReassembles(t *testing.T) {
	net := testNetwork(t)
	s, err := net.Join(rfsim.PolarPoint(2.5, rfsim.DegToRad(-5)), -10)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(82))
	msg := make([]byte, 333) // not a multiple of the MTU
	rng.Read(msg)
	res, err := s.SendMessage(context.Background(), waveform.Uplink, msg, 10e6, 64, 3)
	if err != nil {
		t.Fatalf("SendMessage: %v", err)
	}
	if !bytes.Equal(res.Data, msg) {
		t.Fatal("message corrupted across fragments")
	}
	if res.Fragments != 6 { // ceil(333/64)
		t.Errorf("fragments = %d, want 6", res.Fragments)
	}
	if res.TotalAttempts < res.Fragments {
		t.Errorf("attempts %d < fragments %d", res.TotalAttempts, res.Fragments)
	}
	if res.TotalAirtimeS <= 0 || res.NodeEnergyJ <= 0 {
		t.Error("accounting missing")
	}
	// Downlink direction too.
	res, err = s.SendMessage(context.Background(), waveform.Downlink, msg[:100], 36e6, 40, 3)
	if err != nil || !bytes.Equal(res.Data, msg[:100]) {
		t.Fatalf("downlink message: %v", err)
	}
}

func TestSendMessageValidation(t *testing.T) {
	net := testNetwork(t)
	s, err := net.Join(rfsim.Point{X: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SendMessage(context.Background(), waveform.Uplink, nil, 10e6, 64, 3); err == nil {
		t.Error("empty message should fail")
	}
	if _, err := s.SendMessage(context.Background(), waveform.Uplink, []byte{1}, 10e6, 0, 3); err == nil {
		t.Error("zero MTU should fail")
	}
	if _, err := s.SendMessage(context.Background(), waveform.Uplink, []byte{1}, 10e6, MaxFramePayload+1, 3); err == nil {
		t.Error("oversized MTU should fail")
	}
	if _, err := s.SendMessage(context.Background(), waveform.Uplink, []byte{1}, 10e6, 64, 0); err == nil {
		t.Error("zero attempts should fail")
	}
}

func TestSendMessageAbortsOnDeadLink(t *testing.T) {
	net := testNetwork(t)
	s, err := net.Join(rfsim.Point{X: 4}, -10)
	if err != nil {
		t.Fatal(err)
	}
	// Block the link entirely.
	net.System().AP.Scene().AddObstruction(rfsim.Obstruction{
		Name: "wall", A: rfsim.Point{X: 2, Y: -1}, B: rfsim.Point{X: 2, Y: 1}, LossDB: 40,
	})
	res, err := s.SendMessage(context.Background(), waveform.Uplink, bytes.Repeat([]byte{1}, 200), 10e6, 64, 2)
	if err == nil {
		t.Fatal("message through a 40 dB wall should fail")
	}
	if res.Fragments != 0 {
		t.Errorf("fragments delivered through wall: %d", res.Fragments)
	}
	if res.TotalAttempts == 0 {
		t.Error("attempts should be counted even on failure")
	}
}

func TestFragmentCount(t *testing.T) {
	cases := []struct{ n, mtu, want int }{
		{0, 10, 0}, {1, 10, 1}, {10, 10, 1}, {11, 10, 2}, {333, 64, 6}, {5, 0, 0},
	}
	for _, c := range cases {
		if got := FragmentCount(c.n, c.mtu); got != c.want {
			t.Errorf("FragmentCount(%d, %d) = %d, want %d", c.n, c.mtu, got, c.want)
		}
	}
}
