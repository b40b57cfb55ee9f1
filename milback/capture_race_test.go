package milback

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestSceneMutationDuringScheduledCaptures hammers the capture plane from
// three directions at once — localization captures, node moves, and scene
// edits (blockers in and out) — all through the public facade. Run under
// -race this checks the per-capture clutter scratch, the scene edits and
// the pooled buffers against concurrent job submission; functionally it checks that a
// capture never observes a torn scene (every error is a documented one).
func TestSceneMutationDuringScheduledCaptures(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, WithSeed(11))
	nodes := make([]NodeID, 3)
	for i := range nodes {
		nodes[i] = mustJoin(t, c, 3+float64(i), 0.4*float64(i), 5)
	}

	const rounds = 8
	var wg sync.WaitGroup
	fail := make(chan error, 64)

	// Capture traffic: localization + uplink on every node.
	for i, n := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := c.Localize(ctx, n); err != nil && !errors.Is(err, ErrNoDetection) {
					fail <- fmt.Errorf("node %d localize round %d: %w", i, r, err)
					return
				}
				if _, err := c.Send(ctx, n, payloadFor(i), Rate10Mbps); err != nil && !errors.Is(err, ErrNoDetection) {
					fail <- fmt.Errorf("node %d send round %d: %w", i, r, err)
					return
				}
			}
		}()
	}
	// Mobility: one node keeps moving while the others capture.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			if err := c.Move(ctx, nodes[2], 4+0.1*float64(r%3), 1, float64(r%7)); err != nil {
				fail <- fmt.Errorf("move round %d: %w", r, err)
				return
			}
		}
	}()
	// Scene churn: blockers appear and disappear mid-run, and the next
	// capture's clutter derivation sees each edit. The segment sits away
	// from every node's line of sight so captures keep working.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			name := fmt.Sprintf("walker-%d", r%2)
			if err := c.AddBlocker(ctx, name, 8, -1.2, 8, -0.6, 30); err != nil {
				fail <- fmt.Errorf("add blocker round %d: %w", r, err)
				return
			}
			if _, err := c.RemoveBlocker(ctx, name); err != nil {
				fail <- fmt.Errorf("remove blocker round %d: %w", r, err)
				return
			}
		}
	}()

	wg.Wait()
	close(fail)
	for err := range fail {
		t.Error(err)
	}
}
