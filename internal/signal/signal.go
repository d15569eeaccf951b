// Package signal generalizes the bio-signal front-end of the reproduction:
// where the paper evaluates its synchronization architecture on 3-lead ECG
// at a fixed 250 Hz, the ADC/trace plumbing underneath is workload-agnostic.
// This package defines a generic multi-channel Source abstraction with a
// registry of deterministic synthesizers — the existing ECG generator
// (internal/ecg) plus EMG (burst-activation envelope over band-limited
// noise) and PPG (pulse waveform with dicrotic notch, baseline wander and
// motion artifacts) — and per-channel sampling rates expressed as integer
// divisors of a base acquisition rate, matching the platform ADC's
// independent per-channel sampling grids.
//
// Every generator is a pure function of (Config, duration): records are
// bit-reproducible across runs and across the parallel sweep engine's
// memoizing Cache.
//
// The package surface, in dependency order of a typical caller: Normalize
// validates and canonicalizes a Config (the canonical form is the cache
// key, so equivalent configurations share one synthesis); Synthesize — or
// Cache.Synthesize for memoized, single-flight synthesis — produces a
// Source, the per-channel traces plus their sampling rates; FromECG wraps a
// raw internal/ecg record for callers predating the registry; WriteCSV
// dumps any Source for inspection (cmd/wbsn-signal). Registering a new
// generator kind is described in README.md ("Adding a signal kind"); the
// scenario file schema that selects kinds and rates from disk is documented
// in docs/FORMATS.md.
package signal

import (
	"fmt"
	"math"
	"sort"
)

// MaxChannels is the channel count of the platform's ADC front-end; it must
// equal periph.NumADCChannels (asserted by the platform tests — signal sits
// below periph in the dependency order and cannot import it).
const MaxChannels = 3

// Kind identifies a registered signal family.
type Kind string

// Registered signal kinds.
const (
	KindECG Kind = "ecg"
	KindEMG Kind = "emg"
	KindPPG Kind = "ppg"
)

// Config parameterizes a synthesized record. It is comparable (usable as a
// cache key); zero fields are filled with per-kind defaults by Normalize.
type Config struct {
	// Kind selects the registered synthesizer ("" means KindECG).
	Kind Kind
	// SampleRateHz is the base acquisition rate: the rate of every channel
	// whose RateDiv is 1.
	SampleRateHz float64
	// RateDiv is the per-channel rate divisor: channel ch samples at
	// SampleRateHz/RateDiv[ch] on its own index-derived grid. 0 means 1.
	RateDiv [MaxChannels]int
	// Seed selects the record; synthesis is deterministic in it.
	Seed int64
	// PathologicalFrac is the share of pathological events: ectopic beats
	// (ECG), anomalous high-amplitude bursts (EMG) or motion-corrupted
	// pulses (PPG). In [0, 1].
	PathologicalFrac float64
	// EventRateHz is the mean rate of the signal's repeating events:
	// heartbeats (ECG), activation bursts (EMG), pulses (PPG).
	EventRateHz float64
	// Amplitude is the principal wave amplitude in ADC LSB. By the
	// package-wide convention, 0 selects the kind default (configs must
	// stay comparable cache keys, so there is no omitted/explicit-zero
	// distinction); use a small non-zero value for a near-silent record.
	Amplitude float64
	// NoiseAmp is the additive measurement-noise amplitude in ADC LSB;
	// 0 selects the kind default, small non-zero values approach
	// noiselessness.
	NoiseAmp float64
}

// kindDefaults returns the per-kind zero-field defaults, installed by
// Register so a new kind needs exactly one registration call.
func kindDefaults(k Kind) (Config, error) {
	e, ok := synthesizers[k]
	if !ok {
		return Config{}, fmt.Errorf("signal: unknown kind %q (registered: %v)", k, Kinds())
	}
	return e.defaults, nil
}

// DefaultConfig returns the default configuration of a kind. Unknown kinds
// yield the zero Config (Normalize and Synthesize report the error).
func DefaultConfig(k Kind) Config {
	cfg, _ := kindDefaults(k)
	return cfg
}

// Normalize fills zero fields with the kind's defaults, maps RateDiv 0 to 1,
// and validates the result. Cache keys are normalized configurations, so an
// explicit default and a zero field memoize onto the same record.
func Normalize(cfg Config) (Config, error) {
	if cfg.Kind == "" {
		cfg.Kind = KindECG
	}
	def, err := kindDefaults(cfg.Kind)
	if err != nil {
		return Config{}, err
	}
	if cfg.SampleRateHz == 0 {
		cfg.SampleRateHz = def.SampleRateHz
	}
	if cfg.EventRateHz == 0 {
		cfg.EventRateHz = def.EventRateHz
	}
	if cfg.Amplitude == 0 {
		cfg.Amplitude = def.Amplitude
	}
	if cfg.NoiseAmp == 0 {
		cfg.NoiseAmp = def.NoiseAmp
	}
	for ch := range cfg.RateDiv {
		if cfg.RateDiv[ch] == 0 {
			cfg.RateDiv[ch] = 1
		}
		if cfg.RateDiv[ch] < 1 {
			return Config{}, fmt.Errorf("signal: channel %d rate divisor %d, want >= 1", ch, cfg.RateDiv[ch])
		}
	}
	if cfg.SampleRateHz <= 0 || cfg.EventRateHz <= 0 {
		return Config{}, fmt.Errorf("signal: non-positive rate in config %+v", cfg)
	}
	if cfg.PathologicalFrac < 0 || cfg.PathologicalFrac > 1 {
		return Config{}, fmt.Errorf("signal: pathological fraction %v out of [0,1]", cfg.PathologicalFrac)
	}
	return cfg, nil
}

// Source is a synthesized multi-channel record with ground truth: the
// simulated analog world the platform ADC samples.
type Source struct {
	// Cfg is the normalized configuration the record was synthesized from.
	Cfg Config
	// Traces holds the per-channel sample traces, each at its own rate.
	Traces [MaxChannels][]int16
	// Rates holds the per-channel sampling rates; 0 disables a channel.
	Rates [MaxChannels]float64
	// Events is the number of annotated pathological events in the record.
	Events int
	// Annotations optionally labels the record's events at base-rate sample
	// indices (R peaks, burst onsets, pulse feet).
	Annotations []Annotation
}

// Annotation is one ground-truth event of a record.
type Annotation struct {
	// At is the event's base-rate sample index (R peak, burst onset,
	// pulse foot).
	At int
	// Onset and Offset bound the event's support at base-rate indices
	// (QRS onset/offset, burst extent, pulse span).
	Onset, Offset int
	// Pathological marks ectopic beats, anomalous bursts and
	// motion-corrupted pulses.
	Pathological bool
}

// Kind returns the record's signal kind.
func (s *Source) Kind() Kind { return s.Cfg.Kind }

// BaseRateHz returns the fastest per-channel sampling rate: the rate the
// per-sample real-time deadline is derived from.
func (s *Source) BaseRateHz() float64 {
	max := 0.0
	for _, r := range s.Rates {
		if r > max {
			max = r
		}
	}
	return max
}

// Samples returns channel ch's trace length.
func (s *Source) Samples(ch int) int {
	if ch < 0 || ch >= MaxChannels {
		return 0
	}
	return len(s.Traces[ch])
}

// DurationS returns the record duration in seconds (longest channel).
func (s *Source) DurationS() float64 {
	max := 0.0
	for ch, tr := range s.Traces {
		if s.Rates[ch] <= 0 || len(tr) == 0 {
			continue
		}
		if d := float64(len(tr)) / s.Rates[ch]; d > max {
			max = d
		}
	}
	return max
}

// PathologicalCount returns the number of annotated pathological events.
func (s *Source) PathologicalCount() int { return s.Events }

// Synthesizer generates a record at the base rate on every channel;
// Synthesize applies the per-channel rate divisors afterwards.
type Synthesizer func(cfg Config, duration float64) (*Source, error)

type kindEntry struct {
	synth    Synthesizer
	defaults Config
}

var synthesizers = map[Kind]kindEntry{}

// Register installs a synthesizer for a kind together with the defaults
// Normalize substitutes for zero config fields; defaults.Kind is forced to
// k. One Register call fully opens the kind to Normalize, Synthesize,
// scenario files and the CLIs. Registering an already-bound kind panics:
// generators must be globally unambiguous for memoization to be sound.
func Register(k Kind, s Synthesizer, defaults Config) {
	if _, dup := synthesizers[k]; dup {
		panic(fmt.Sprintf("signal: kind %q registered twice", k))
	}
	defaults.Kind = k
	synthesizers[k] = kindEntry{synth: s, defaults: defaults}
}

// Kinds lists the registered kinds, sorted.
func Kinds() []string {
	out := make([]string, 0, len(synthesizers))
	for k := range synthesizers {
		out = append(out, string(k))
	}
	sort.Strings(out)
	return out
}

// MaxSamples bounds a record's length in base-rate samples per channel.
// Synthesis holds every channel in memory at once, with float64 scratch
// beside the int16 traces (about 30 bytes per sample for three-lead ECG),
// so the bound keeps one record near 120 MiB. That is still over 4.6 hours
// of the paper's 250 Hz ECG, against the paper's 60 s measurement windows.
const MaxSamples = 1 << 22

// CheckDuration reports whether a record of duration seconds at rateHz
// base-rate samples per second is one Synthesize accepts: finite, at least
// one sample, and at most MaxSamples.
func CheckDuration(duration, rateHz float64) error {
	n := duration * rateHz
	switch {
	case math.IsNaN(n) || math.IsInf(n, 0):
		return fmt.Errorf("signal: non-finite duration %v at %v Hz", duration, rateHz)
	case n < 1:
		return fmt.Errorf("signal: non-positive duration %v at %v Hz", duration, rateHz)
	case n > MaxSamples:
		return fmt.Errorf("signal: duration %v s at %v Hz is %.4g samples per channel, over the %d-sample record bound", duration, rateHz, n, MaxSamples)
	}
	return nil
}

// Synthesize generates duration seconds of signal: it normalizes the
// configuration, dispatches to the kind's registered synthesizer and
// decimates each channel to its configured rate.
func Synthesize(cfg Config, duration float64) (*Source, error) {
	cfg, err := Normalize(cfg)
	if err != nil {
		return nil, err
	}
	entry, ok := synthesizers[cfg.Kind]
	if !ok {
		return nil, fmt.Errorf("signal: kind %q has no registered synthesizer (registered: %v)", cfg.Kind, Kinds())
	}
	if err := CheckDuration(duration, cfg.SampleRateHz); err != nil {
		return nil, err
	}
	src, err := entry.synth(cfg, duration)
	if err != nil {
		return nil, err
	}
	src.Cfg = cfg
	for ch := range src.Traces {
		if len(src.Traces[ch]) == 0 {
			src.Rates[ch] = 0
			continue
		}
		src.Rates[ch] = cfg.SampleRateHz
		if div := cfg.RateDiv[ch]; div > 1 {
			src.Traces[ch] = decimate(src.Traces[ch], div)
			src.Rates[ch] = cfg.SampleRateHz / float64(div)
		}
	}
	return src, nil
}

// decimate keeps every div-th sample, ending phases on the strobe: the
// ADC publishes a channel's sample m at instant (m+1) periods after reset,
// so the divided channel's sample m must be the base sample captured at
// base instant (m+1)*div — base index (m+1)*div-1. An index-0 phase would
// hand the converter data div-1 base samples staler than the fast
// channel's at every shared instant.
func decimate(in []int16, div int) []int16 {
	out := make([]int16, 0, len(in)/div)
	for i := div - 1; i < len(in); i += div {
		out = append(out, in[i])
	}
	return out
}

// clamp16 quantizes an accumulated float sample to the ADC's 16-bit range.
func clamp16(v float64) int16 {
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	return int16(math.Round(v))
}
