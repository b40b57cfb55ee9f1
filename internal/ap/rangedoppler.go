package ap

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dsp"
	"repro/internal/obs"
	"repro/internal/rfsim"
	"repro/internal/waveform"
)

// RangeDopplerMap is the classic 2-D FMCW product: power over
// (range bin × velocity bin), computed from a burst of chirps by a second
// FFT across the chirp (slow-time) axis. For MilBack the slow-time signal
// at a node's range bin is its switching sequence times the Doppler
// rotation, so a node toggling every chirp concentrates at the Nyquist
// velocity bin offset by its true radial velocity — which both separates
// it from static clutter (clutter sits at zero Doppler) and measures its
// speed in one shot.
type RangeDopplerMap struct {
	// Power[v][r] is the power at velocity bin v, range bin r.
	Power [][]float64
	// RangeAxisM maps range bins to meters.
	RangeAxisM []float64
	// VelocityAxisMS maps velocity bins to m/s. Because the node toggles
	// every chirp, its energy appears at axis value (±v_nyq + v_true); the
	// axis here is already re-centred on the toggling line, so a static
	// node reads 0 m/s.
	VelocityAxisMS []float64
}

// ComputeRangeDopplerMap builds the map from a chirp burst. nChirps should
// be a power of two ≥ 8 for a clean Doppler FFT; other lengths are
// zero-padded.
func (a *AP) ComputeRangeDopplerMap(c waveform.Chirp, frames []ChirpFrame) (RangeDopplerMap, error) {
	if len(frames) < 4 {
		return RangeDopplerMap{}, fmt.Errorf("ap: range-Doppler needs >= 4 chirps, got %d", len(frames))
	}
	nfft := a.cfg.FFTSize
	fs := a.cfg.BeatSampleRateHz
	half := nfft / 2
	// Slow-time input: the background-subtracted spectra. Subtraction is a
	// slow-time high-pass that removes static clutter AND the node's
	// non-toggling (mean) Doppler line, leaving its switching line — the
	// one the velocity axis below is centred on. Only antenna 0 feeds the
	// map, so antenna 1 is never materialized.
	ds, err := a.subtractedDiffs(frames, [2]diffMode{diffSpec, diffSkip})
	if err != nil {
		return RangeDopplerMap{}, err
	}
	defer a.releaseDiffSet(ds)
	spectra := make([][]complex128, len(ds.d))
	for k := range ds.d {
		spectra[k] = ds.d[k][0]
	}
	// Doppler FFT down each range column. The FFTShift that used to
	// re-centre each column is folded into index arithmetic on the store:
	// shifted bin v is raw bin (v + nd/2) mod nd, so no per-range-bin
	// rotation copy is allocated.
	nd := dsp.NextPowerOfTwo(len(spectra))
	power := make([][]float64, nd)
	for v := range power {
		power[v] = make([]float64, half)
	}
	a.dopplerColumns(spectra, power, len(spectra), nd, half)
	// Axes. Doppler bin spacing: 1/(nd·CRI) Hz of slow-time frequency;
	// slow-time frequency f_d maps to velocity v = f_d·c/(2·f_eff). The
	// toggling line sits at Nyquist (±1/(2·CRI)), so re-centre there.
	rd := RangeDopplerMap{Power: power}
	rd.RangeAxisM = make([]float64, half)
	for r := 0; r < half; r++ {
		rd.RangeAxisM[r] = RangeFromBeat(c, float64(r)*fs/float64(nfft))
	}
	rd.VelocityAxisMS = make([]float64, nd)
	fEff := a.dopplerCarrier(c)
	cri := a.cfg.ChirpIntervalS
	for v := 0; v < nd; v++ {
		fd := (float64(v) - float64(nd)/2) / (float64(nd) * cri) // Hz, after the shift
		// Offset by the toggling half-rate line and wrap into the
		// half-open unambiguous interval (−1/(2·CRI), +1/(2·CRI)]; in axis
		// terms (the sign flips below) that is [−v_nyq, +v_nyq). The lower
		// wrap uses <= so slow-time frequency exactly −1/(2·CRI) wraps to
		// +1/(2·CRI) — a bin reads −v_nyq, never +v_nyq, matching the
		// half-open convention everywhere else in the pipeline.
		fdNode := fd - 1/(2*cri)
		for fdNode <= -1/(2*cri) {
			fdNode += 1 / cri
		}
		for fdNode > 1/(2*cri) {
			fdNode -= 1 / cri
		}
		rd.VelocityAxisMS[v] = -fdNode * rfsim.SpeedOfLight / (2 * fEff)
	}
	return rd, nil
}

// dopplerColBlock is how many range columns a worker gathers into its arena
// per batched Doppler transform: big enough to amortize the per-call plan
// dispatch, small enough that an arena (block × nd complex samples) stays
// cache-resident.
const dopplerColBlock = 64

// dopplerColumns runs the slow-time Doppler FFT down every range column
// through the batched transform layer: columns are gathered block-wise into
// per-worker arenas and each block runs as one dsp.BatchPlan call against
// shared twiddles, fanned across the intra-capture workers. nd is already
// NextPowerOfTwo(ns), so the packed leading stages have nothing to prune
// here — the wins are the shared plan state, two pool round-trips per worker
// instead of one per column, and the fan-out. Each column's output depends
// only on its range bin, so the map is bit-identical at any worker count.
func (a *AP) dopplerColumns(spectra [][]complex128, power [][]float64, ns, nd, half int) {
	o := a.obs
	var batchStart time.Time
	if o != nil {
		batchStart = time.Now()
	}
	nBlocks := (half + dopplerColBlock - 1) / dopplerColBlock
	workers := a.captureWorkers()
	if workers > nBlocks {
		workers = nBlocks
	}
	bp := dsp.PlanBatch(nd)
	arenas := make([][]complex128, workers)
	hdrs := make([][][]complex128, workers)
	for w := range arenas {
		arenas[w] = a.getComplex(dopplerColBlock * nd)
		hdr := make([][]complex128, dopplerColBlock)
		for j := range hdr {
			hdr[j] = arenas[w][j*nd : (j+1)*nd]
		}
		hdrs[w] = hdr
	}
	busy := newBusyClock(o, workers)
	got := a.fanOut(nBlocks, workers, func(worker, b int) {
		t0 := busy.start()
		r0 := b * dopplerColBlock
		r1 := r0 + dopplerColBlock
		if r1 > half {
			r1 = half
		}
		hdr := hdrs[worker]
		for j, r := 0, r0; r < r1; j, r = j+1, r+1 {
			row := hdr[j]
			for k := 0; k < ns; k++ {
				row[k] = spectra[k][r]
			}
			// The tail may hold the previous block's transform output.
			for i := ns; i < nd; i++ {
				row[i] = 0
			}
		}
		bp.Forward(hdr[:r1-r0])
		for j, r := 0, r0; r < r1; j, r = j+1, r+1 {
			row := hdr[j]
			for v := 0; v < nd; v++ {
				cv := row[(v+nd/2)&(nd-1)]
				re, im := real(cv), imag(cv)
				power[v][r] = re*re + im*im
			}
		}
		busy.stop(t0)
	})
	for w := range arenas {
		a.putComplex(arenas[w])
	}
	if o != nil {
		o.fftBatch.Observe(time.Since(batchStart).Seconds())
		o.tracer.Record(obs.SpanFFTBatch, batchStart, int64(half))
		busy.recordBusy(o.tracer, obs.SpanFFTBatch, batchStart, got)
	}
}

// StrongestCell returns the (velocity, range) of the map's peak cell,
// excluding the zero-Doppler clutter ridge (±guard velocity bins around the
// static line).
func (m RangeDopplerMap) StrongestCell(clutterGuardBins int) (velocityMS, rangeM float64, err error) {
	if len(m.Power) == 0 {
		return 0, 0, fmt.Errorf("ap: empty range-Doppler map")
	}
	nd := len(m.Power)
	// The static-clutter ridge sits at slow-time DC. After re-centring the
	// velocity axis on the toggling line, clutter appears at the axis value
	// farthest from zero — equivalently at shifted bin nd/2. Exclude a
	// guard band around it.
	clutterBin := nd / 2
	best := math.Inf(-1)
	bv, br := -1, -1
	for v := range m.Power {
		dist := v - clutterBin
		if dist < 0 {
			dist = -dist
		}
		if wrap := nd - dist; wrap < dist {
			dist = wrap
		}
		if dist <= clutterGuardBins {
			continue
		}
		for r := 1; r < len(m.Power[v]); r++ {
			if m.Power[v][r] > best {
				best = m.Power[v][r]
				bv, br = v, r
			}
		}
	}
	if bv < 0 {
		return 0, 0, fmt.Errorf("ap: no cells outside the clutter guard")
	}
	return m.VelocityAxisMS[bv], m.RangeAxisM[br], nil
}

// VelocityResolution returns the Doppler bin spacing in m/s.
func (m RangeDopplerMap) VelocityResolution() float64 {
	if len(m.VelocityAxisMS) < 2 {
		return 0
	}
	return math.Abs(m.VelocityAxisMS[1] - m.VelocityAxisMS[0])
}
