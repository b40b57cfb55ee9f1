// VR tracker: the paper's motivating application (§1 — "applications which
// need both uplink and downlink connectivity such as Virtual Reality (VR)
// and Augmented Reality (AR)").
//
// A headset-mounted MilBack node follows a continuous waypoint trajectory —
// a slow arc with head rotation — while the AP localizes it every frame,
// measures its radial velocity from the same chirp captures (Doppler), and
// Kalman-fuses both into a smooth pose stream. Scene updates flow downlink
// and controller input uplink in the same duty cycle, all with the node
// drawing tens of milliwatts instead of the watts an active mmWave radio
// would need.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"repro/milback"
)

func main() {
	c, err := milback.NewCluster(milback.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	headset, err := c.Join(ctx, 2.0, -0.8, 0)
	if err != nil {
		log.Fatal(err)
	}

	// The user walks a slow arc at ~0.4 m/s over 6 s, turning their head.
	// The trajectory is continuous: between frames the headset's true pose
	// follows the spline, and every capture sees the pose and radial
	// velocity of its own instant.
	const frames = 24
	const frameDt = 0.25
	wps := make([]milback.Waypoint, 0, frames+1)
	for f := 0; f <= frames; f++ {
		t := float64(f) / frames
		wps = append(wps, milback.Waypoint{
			T: float64(f) * frameDt,
			X: 2.0 + 1.5*t,
			Y: -0.8 + 1.6*t,
			// Head rotation, biased so the FSA never points into the
			// ground-plane mirror window (−6°…−2°) that biases Doppler.
			OrientationDeg: 10 + 10*math.Sin(2*math.Pi*t),
		})
	}
	if err := c.SetTrajectory(ctx, headset, milback.Trajectory{
		Waypoints:     wps,
		Interpolation: milback.InterpCubic,
	}); err != nil {
		log.Fatal(err)
	}
	tracker, err := c.NewTracker(headset)
	if err != nil {
		log.Fatal(err)
	}
	tracker.MeasurementStdM = 0.12 // honest per-fix std at this range

	fmt.Println("frame |   true pose (x, y, yaw)   |  tracked pose (x, y, yaw)  | raw err | kf err | v (m/s)")
	var rawSqSum, kfSqSum, worstYaw, speedSum float64
	speedFrames := 0
	for f := 0; f < frames; f++ {
		// One protocol packet per frame: preamble localizes + senses
		// orientation, payload pushes a 64-byte scene update downlink.
		update := make([]byte, 64)
		for i := range update {
			update[i] = byte(f + i)
		}
		ex, err := c.Deliver(ctx, headset, update, milback.Rate36Mbps)
		if err != nil {
			log.Fatalf("frame %d: %v", f, err)
		}
		// Kalman-fuse the per-packet fix plus a Doppler range-rate fix into
		// the track, filed at the cluster's simulation clock.
		pose, err := tracker.StepNow(ctx)
		if err != nil {
			log.Fatalf("frame %d track: %v", f, err)
		}
		x, y, yaw, err := c.TruePosition(headset)
		if err != nil {
			log.Fatal(err)
		}
		rawErr := math.Hypot(pose.Raw.X-x, pose.Raw.Y-y)
		kfErr := math.Hypot(pose.X-x, pose.Y-y)
		yawErr := math.Abs(ex.Position.OrientationDeg - yaw)
		rawSqSum += rawErr * rawErr
		kfSqSum += kfErr * kfErr
		if yawErr > worstYaw {
			worstYaw = yawErr
		}
		if f >= 8 { // past the filter's settling window
			speedSum += math.Hypot(pose.VX, pose.VY)
			speedFrames++
		}
		fmt.Printf("%5d | (%5.2f, %5.2f, %6.1f°) | (%5.2f, %5.2f, %6.1f°) | %5.1f cm | %5.1f cm | %+5.2f\n",
			f, x, y, yaw, pose.X, pose.Y, ex.Position.OrientationDeg,
			rawErr*100, kfErr*100, pose.RadialVelocityMS)

		// Controller input flows back uplink in the same duty cycle.
		input := []byte(fmt.Sprintf("buttons=%04b stick=%+.2f", f%16, math.Sin(float64(f)/frames)))
		if _, err := c.Send(ctx, headset, input, milback.Rate40Mbps); err != nil {
			log.Fatalf("frame %d uplink: %v", f, err)
		}

		// Advance the world to the next frame: the headset slides along its
		// trajectory and the simulation clock follows.
		if _, err := c.AdvanceTrajectory(ctx, headset, frameDt); err != nil {
			log.Fatalf("frame %d advance: %v", f, err)
		}
		c.AdvanceTime(frameDt)
	}
	power, _ := c.Power(headset, milback.ActivityUplink, milback.Rate40Mbps)
	fmt.Printf("\nraw fix RMSE %.1f cm, tracked RMSE %.1f cm; worst yaw error %.2f° — at %.0f mW\n",
		math.Sqrt(rawSqSum/frames)*100, math.Sqrt(kfSqSum/frames)*100, worstYaw, power*1e3)
	fmt.Printf("estimated walking speed: %.2f m/s over %.1f s simulated\n",
		speedSum/float64(speedFrames), c.Now())
}
