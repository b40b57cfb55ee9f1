// Package fsa models MilBack's dual-port Frequency Scanning Antenna.
//
// An FSA is a passive series-fed array whose beam direction is a function of
// the signal frequency (paper Fig 1). MilBack extends the single-port FSA of
// prior work with a second port on the opposite end of the feed line, giving
// two sets of beams whose frequency assignments are mirrors of each other
// (Fig 3): at frequency f, port A's beam points at angle θ(f) while port B's
// beam points at −θ(f). Each port terminates in an SPDT switch that selects
// reflective mode (short to ground: incident energy within the beam is
// re-radiated back to its arrival direction) or absorptive mode (matched
// envelope detector: energy is delivered to the port, reflection ≈ 0).
//
// The paper's FSA was designed in ANSYS HFSS and fabricated on Rogers
// substrate; this package is the analytic substitution (DESIGN.md §1):
// the array factor of a Hamming-tapered series-fed array (first sidelobe
// near −40 dB) around a linear frequency→angle map covering 60° of scan
// over the 26.5–29.5 GHz band with ≈10° beamwidth and 12.5 dBi peak gain,
// matching the measured pattern of Fig 10.
//
// Every pattern evaluation runs one kernel (DESIGN.md §13.4): the taper is
// symmetric, so the array factor is a cosine sum over half the elements,
// driven by cos(ψ/2) = cos u·cos v ± sin u·sin v, where u is the half
// array phase of the arrival direction and v that of port A's beam (port
// B's beam is its exact mirror, hence the sign). BeamTable holds
// (cos v, sin v) for a whole frequency grid, so ReflectionEnvelopes fills
// a node's two port envelopes with no transcendental per sample, and one
// table serves every node of a capture.
//
// # Paper map
//
//   - §3 dual-port FSA principle — the mirrored frequency→angle maps of
//     BeamAngleDeg and the port/mode model.
//   - §4 switching — Mode, the SPDT reflective/absorptive states.
//   - Fig 10 measured pattern — GainDBi / ReflectionAmplitude, and the
//     bulk BeamTable / ReflectionEnvelopes fill the synthesis uses.
package fsa
