package proto

import "testing"

// splitmix64 with the standard gamma must reproduce the reference sequence
// (first output of SplitMix64 seeded with 0).
func TestSplitmix64Reference(t *testing.T) {
	if got := splitmix64(0); got != 0xE220A8397B1DCDAF {
		t.Fatalf("splitmix64(0) = %#x, want 0xE220A8397B1DCDAF", got)
	}
	if got := splitmix64(0xE220A8397B1DCDAF - splitmix64Gamma + splitmix64Gamma); got == 0 {
		t.Fatal("splitmix64 should not collapse to zero")
	}
}

// The seeds every session and operation draws are pinned bit for bit:
// moving the mixer must not move a single seed.
func TestSeedStreamPinned(t *testing.T) {
	if got := DeriveSessionSeed(1, 1); got != 8147104208329303767 {
		t.Errorf("DeriveSessionSeed(1, 1) = %d, want 8147104208329303767", got)
	}
	if got := DeriveSessionSeed(-5, 3); got != 5828229321792201168 {
		t.Errorf("DeriveSessionSeed(-5, 3) = %d, want 5828229321792201168", got)
	}
	s := NewSeedStream(DeriveSessionSeed(7, 2))
	for i, want := range []int64{2756759555671984696, 1666493990332326350, 5025949919628723145} {
		if got := s.Next(); got != want {
			t.Errorf("draw %d = %d, want %d", i, got, want)
		}
	}
}

func TestSeedStreamDeterministic(t *testing.T) {
	a := NewSeedStream(42)
	b := NewSeedStream(42)
	for i := 0; i < 100; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("draw %d: streams diverged (%d vs %d)", i, x, y)
		}
	}
}

func TestSeedStreamsIndependent(t *testing.T) {
	// Streams for different sessions of the same network must not collide
	// in their early draws.
	seen := map[int64]string{}
	for id := 1; id <= 16; id++ {
		s := NewSeedStream(DeriveSessionSeed(1, id))
		for i := 0; i < 32; i++ {
			v := s.Next()
			if prev, dup := seen[v]; dup {
				t.Fatalf("seed collision between session %d and %s (value %d)", id, prev, v)
			}
			seen[v] = "earlier session"
		}
	}
}

func TestDeriveSessionSeedVariesWithInputs(t *testing.T) {
	if DeriveSessionSeed(1, 1) == DeriveSessionSeed(1, 2) {
		t.Fatal("different sessions must get different seeds")
	}
	if DeriveSessionSeed(1, 1) == DeriveSessionSeed(2, 1) {
		t.Fatal("different network seeds must give different session seeds")
	}
	if DeriveSessionSeed(0, 0) < 0 || DeriveSessionSeed(-5, 3) < 0 {
		t.Fatal("derived seeds must be non-negative")
	}
}

// A session's results must depend only on its own stream, not on how many
// draws other sessions have made — the property the scheduler's determinism
// guarantee rests on.
func TestSeedStreamUnaffectedByOtherStreams(t *testing.T) {
	lone := NewSeedStream(DeriveSessionSeed(7, 2))
	want := make([]int64, 10)
	for i := range want {
		want[i] = lone.Next()
	}

	noisy := NewSeedStream(DeriveSessionSeed(7, 1))
	again := NewSeedStream(DeriveSessionSeed(7, 2))
	for i := range want {
		for j := 0; j < i+1; j++ {
			noisy.Next() // interleaved draws from a sibling stream
		}
		if got := again.Next(); got != want[i] {
			t.Fatalf("draw %d: %d != %d despite sibling activity", i, got, want[i])
		}
	}
}
