package experiments

import (
	"fmt"
	"math"

	"repro/internal/dsp"
	"repro/internal/motion"
	"repro/internal/parallel"
	"repro/internal/rfsim"
	"repro/internal/track"
)

// ExtMobilityRow is one speed point of the mobility study.
type ExtMobilityRow struct {
	SpeedMS float64
	// RawRMSEM is the RMSE of single-shot localization fixes against the
	// trajectory ground truth; TrackedRMSEM is the RMSE of the Kalman track
	// fusing those fixes with Doppler range-rate measurements.
	RawRMSEM, TrackedRMSEM float64
	// VelocityRMSEMS is the RMSE of the Doppler range-rate fixes against
	// the trajectory's analytic radial velocity.
	VelocityRMSEMS float64
	Fixes, Trials  int
}

// ExtMobilityResult is the continuous-mobility extension study: a node
// walks a fixed route at each speed while the AP localizes it at a fixed
// fix rate, and the study reports how localization and tracking error grow
// with speed. The paper localizes per packet on static placements (§9.1);
// this extends the same pipeline to trajectory-driven nodes (§9.5's moving
// node, DragonFly) with Doppler fusion.
type ExtMobilityResult struct {
	Rows []ExtMobilityRow
	// FixRateHz is the localization rate along the route.
	FixRateHz float64
}

// mobilityRoute builds a ping-pong walk between (2, -0.8) and (6.5, 0.8),
// retimed to speedMS and long enough to supply routeS seconds of motion.
// Orientation stays at 5° — inside the FSA's working range, clear of the
// −6°…−2° mirror-artifact window that biases Doppler.
func mobilityRoute(speedMS, routeS float64) *motion.Path {
	a := motion.Waypoint{X: 2, Y: -0.8, OrientationDeg: 5}
	b := motion.Waypoint{X: 6.5, Y: 0.8, OrientationDeg: 5}
	leg := math.Hypot(b.X-a.X, b.Y-a.Y)
	legs := int(math.Ceil(speedMS * routeS / leg))
	if legs < 1 {
		legs = 1
	}
	wps := []motion.Waypoint{a}
	for i := 0; i < legs; i++ {
		if i%2 == 0 {
			wps = append(wps, b)
		} else {
			wps = append(wps, a)
		}
	}
	timed, err := motion.ConstantSpeed(wps, speedMS)
	if err != nil {
		panic(fmt.Sprintf("experiments: mobility route: %v", err))
	}
	return motion.MustNewPath(timed, motion.Linear)
}

// ExtMobilityRMSE sweeps trajectory speeds, localizing a moving node at
// fixRateHz for routeS seconds per trial and reporting raw-fix, tracked
// and velocity RMSE per speed.
func ExtMobilityRMSE(speeds []float64, fixRateHz, routeS float64, trials int, seed int64) ExtMobilityResult {
	if trials < 1 {
		panic(fmt.Sprintf("experiments: trials must be >= 1, got %d", trials))
	}
	if fixRateHz <= 0 || routeS <= 0 {
		panic(fmt.Sprintf("experiments: bad fix rate %g or route duration %g", fixRateHz, routeS))
	}
	out := ExtMobilityResult{FixRateHz: fixRateHz}
	rows := make([]ExtMobilityRow, len(speeds))
	dt := 1 / fixRateHz
	steps := int(routeS * fixRateHz)
	// Fixes inside the filter's settling window are excluded from the RMSE.
	settle := 10
	if settle > steps/2 {
		settle = steps / 2
	}
	parallel.ForEach(len(speeds), func(si int) {
		speed := speeds[si]
		var rawSq, trkSq, velSq []float64
		for tr := 0; tr < trials; tr++ {
			sys := defaultSystem()
			path := mobilityRoute(speed, routeS)
			start := path.PoseAt(path.Start())
			n, err := sys.AddNode(rfsim.Point{X: start.X, Y: start.Y}, start.OrientationDeg)
			if err != nil {
				panic(err)
			}
			if err := sys.SetTrajectoryAt(n, path, path.Start()); err != nil {
				panic(err)
			}
			// The route reverses direction at its endpoints, so the white-
			// acceleration level must scale with speed or the CV filter lags
			// through every turn.
			cfg := track.DefaultConfig()
			cfg.ProcessNoiseAccel = 3 + 2*speed
			kf := track.MustNew(cfg)
			trialSeed := seed + int64(si)*1_000_000 + int64(tr)*10_000
			for step := 0; step < steps; step++ {
				if _, err := sys.AdvanceTrajectory(n, dt); err != nil {
					panic(err)
				}
				loc, err := sys.Localize(n, trialSeed+int64(step)*2)
				if err != nil {
					panic(fmt.Sprintf("experiments: mobility speed=%g step=%d: %v", speed, step, err))
				}
				rawX := loc.RangeM * math.Cos(loc.AzimuthRad)
				rawY := loc.RangeM * math.Sin(loc.AzimuthRad)
				v, err := sys.MeasureTrajectoryVelocity(n, 32, trialSeed+int64(step)*2+1)
				if err != nil {
					panic(err)
				}
				t := float64(step+1) * dt
				if !kf.Initialized() {
					kf.Init(rawX, rawY, 0, t)
				} else {
					if err := kf.UpdatePlanar(rawX, rawY, 0.15, t); err != nil {
						panic(err)
					}
					if err := kf.UpdateRadialVelocity(v, 0.35, t); err != nil {
						panic(err)
					}
				}
				if step < settle {
					continue
				}
				pose, mt, ok := sys.TrajectoryPose(n)
				if !ok {
					panic("experiments: trajectory unbound mid-route")
				}
				trueV := motion.RadialVelocity(pose, path.VelocityAt(mt))
				ex, ey := rawX-pose.X, rawY-pose.Y
				rawSq = append(rawSq, ex*ex+ey*ey)
				kx, ky, _, _, _, _ := kf.State()
				ex, ey = kx-pose.X, ky-pose.Y
				trkSq = append(trkSq, ex*ex+ey*ey)
				velSq = append(velSq, (v-trueV)*(v-trueV))
			}
		}
		rows[si] = ExtMobilityRow{
			SpeedMS:        speed,
			RawRMSEM:       math.Sqrt(dsp.Mean(rawSq)),
			TrackedRMSEM:   math.Sqrt(dsp.Mean(trkSq)),
			VelocityRMSEMS: math.Sqrt(dsp.Mean(velSq)),
			Fixes:          len(rawSq) / trials,
			Trials:         trials,
		}
	})
	out.Rows = rows
	return out
}

// Summary renders the mobility study.
func (r ExtMobilityResult) Summary() Table {
	t := Table{
		Title:   "Extension — localization RMSE vs trajectory speed (moving node)",
		Columns: []string{"speed (m/s)", "raw RMSE (m)", "tracked RMSE (m)", "velocity RMSE (m/s)", "fixes", "trials"},
		Notes: []string{
			fmt.Sprintf("node walks a 2–6.5 m ping-pong route, localized at %g Hz with Doppler fusion", r.FixRateHz),
			"tracked = 3-D CV Kalman filter over planar fixes + range-rate fixes",
		},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			f2(row.SpeedMS), f2(row.RawRMSEM), f2(row.TrackedRMSEM), f2(row.VelocityRMSEMS),
			fmt.Sprintf("%d", row.Fixes), fmt.Sprintf("%d", row.Trials),
		})
	}
	return t
}
