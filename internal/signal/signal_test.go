package signal

import (
	"math"
	"strings"
	"testing"

	"repro/internal/ecg"
)

func TestKindsRegistered(t *testing.T) {
	got := strings.Join(Kinds(), ",")
	if got != "ecg,emg,ppg" {
		t.Fatalf("registered kinds = %q, want ecg,emg,ppg", got)
	}
}

// TestECGMatchesLegacyGenerator pins the subsumption contract: the generic
// subsystem's default ECG record is bit-identical to the pre-subsystem
// ecg.Synthesize output, so every experiment keyed on the default
// configuration reproduces the same operating points and power numbers.
func TestECGMatchesLegacyGenerator(t *testing.T) {
	cfg := DefaultConfig(KindECG)
	cfg.Seed = 7
	cfg.PathologicalFrac = 0.2
	src, err := Synthesize(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	legacyCfg := ecg.DefaultConfig()
	legacyCfg.Seed = 7
	legacyCfg.PathologicalFrac = 0.2
	legacy, err := ecg.Synthesize(legacyCfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for ch := 0; ch < ecg.NumLeads; ch++ {
		if len(src.Traces[ch]) != len(legacy.Leads[ch]) {
			t.Fatalf("channel %d length %d, legacy lead %d", ch, len(src.Traces[ch]), len(legacy.Leads[ch]))
		}
		for i := range src.Traces[ch] {
			if src.Traces[ch][i] != legacy.Leads[ch][i] {
				t.Fatalf("channel %d sample %d = %d, legacy %d", ch, i, src.Traces[ch][i], legacy.Leads[ch][i])
			}
		}
		if src.Rates[ch] != 250 {
			t.Errorf("channel %d rate = %v, want 250", ch, src.Rates[ch])
		}
	}
	if src.Events != legacy.PathologicalCount() {
		t.Errorf("events = %d, legacy pathological count %d", src.Events, legacy.PathologicalCount())
	}
	if len(src.Annotations) != len(legacy.Beats) {
		t.Errorf("annotations = %d, legacy beats %d", len(src.Annotations), len(legacy.Beats))
	}
}

// TestZeroConfigNormalizes pins that a zero config is the default ECG: the
// experiment driver's zero-value Options path depends on it.
func TestZeroConfigNormalizes(t *testing.T) {
	cfg, err := Normalize(Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultConfig(KindECG)
	want.RateDiv = [MaxChannels]int{1, 1, 1}
	if cfg != want {
		t.Errorf("normalized zero config = %+v, want %+v", cfg, want)
	}
}

func TestSynthesisDeterministic(t *testing.T) {
	for _, kind := range []Kind{KindECG, KindEMG, KindPPG} {
		cfg := DefaultConfig(kind)
		cfg.Seed = 3
		cfg.PathologicalFrac = 0.3
		a, err := Synthesize(cfg, 4)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		b, err := Synthesize(cfg, 4)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for ch := range a.Traces {
			for i := range a.Traces[ch] {
				if a.Traces[ch][i] != b.Traces[ch][i] {
					t.Fatalf("%s channel %d sample %d differs across identical syntheses", kind, ch, i)
				}
			}
		}
		cfg2 := cfg
		cfg2.Seed = 4
		c, err := Synthesize(cfg2, 4)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		same := true
		for i, v := range a.Traces[0] {
			if c.Traces[0][i] != v {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: different seeds produced an identical record", kind)
		}
	}
}

// TestEMGBurstEnvelope checks the activation structure: bursts concentrate
// the signal energy, anomalous bursts are counted, and a clean record has
// zero events.
func TestEMGBurstEnvelope(t *testing.T) {
	cfg := DefaultConfig(KindEMG)
	cfg.Seed = 5
	clean, err := Synthesize(cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Events != 0 {
		t.Errorf("clean EMG reports %d pathological events", clean.Events)
	}
	if len(clean.Annotations) < 5 {
		t.Errorf("20 s at %.1f bursts/s annotated only %d bursts", cfg.EventRateHz, len(clean.Annotations))
	}
	// Peak must be well above the inter-burst noise floor.
	var peak, sum float64
	for _, v := range clean.Traces[0] {
		a := float64(v)
		if a < 0 {
			a = -a
		}
		if a > peak {
			peak = a
		}
		sum += a
	}
	mean := sum / float64(len(clean.Traces[0]))
	if peak < 6*mean {
		t.Errorf("EMG peak %.0f vs mean |x| %.1f: no burst structure", peak, mean)
	}

	cfg.PathologicalFrac = 0.5
	patho, err := Synthesize(cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	if patho.Events == 0 {
		t.Error("50% anomalous EMG reports zero events")
	}
}

// TestPPGPulseStructure checks the pulse waveform and motion-artifact
// counting.
func TestPPGPulseStructure(t *testing.T) {
	cfg := DefaultConfig(KindPPG)
	cfg.Seed = 5
	clean, err := Synthesize(cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Events != 0 {
		t.Errorf("clean PPG reports %d pathological events", clean.Events)
	}
	// ~1.25 pulses/s over 20 s.
	if n := len(clean.Annotations); n < 20 || n > 30 {
		t.Errorf("20 s at 1.25 pulses/s annotated %d pulses, want 20..30", n)
	}
	// Systolic peaks should approach baseline + amplitude on channel 0.
	var peak int16
	for _, v := range clean.Traces[0] {
		if v > peak {
			peak = v
		}
	}
	if float64(peak) < 0.9*cfg.Amplitude {
		t.Errorf("PPG peak %d vs amplitude %.0f: pulses missing", peak, cfg.Amplitude)
	}

	cfg.PathologicalFrac = 0.6
	motion, err := Synthesize(cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	if motion.Events == 0 {
		t.Error("60% motion-corrupted PPG reports zero events")
	}
}

// TestDecimation pins the multi-rate contract: a divided channel is the
// strided view of its base-rate trace, at the divided rate.
func TestDecimation(t *testing.T) {
	base := DefaultConfig(KindPPG)
	base.Seed = 2
	full, err := Synthesize(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	div := base
	div.RateDiv = [MaxChannels]int{1, 2, 4}
	mixed, err := Synthesize(div, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantRates := [MaxChannels]float64{125, 62.5, 31.25}
	if mixed.Rates != wantRates {
		t.Errorf("rates = %v, want %v", mixed.Rates, wantRates)
	}
	for ch, d := range []int{1, 2, 4} {
		wantLen := len(full.Traces[ch]) / d
		if len(mixed.Traces[ch]) != wantLen {
			t.Errorf("channel %d: %d samples, want %d", ch, len(mixed.Traces[ch]), wantLen)
		}
		// Sample m is the base sample at the divided strobe instant
		// (m+1)*d, i.e. base index (m+1)*d-1 (matching the ADC's
		// instant convention, so shared instants publish equally fresh
		// data on every channel).
		for i, v := range mixed.Traces[ch] {
			if want := full.Traces[ch][(i+1)*d-1]; v != want {
				t.Fatalf("channel %d sample %d = %d, want base sample %d = %d", ch, i, v, (i+1)*d-1, want)
			}
		}
	}
	if mixed.BaseRateHz() != 125 {
		t.Errorf("base rate = %v, want 125", mixed.BaseRateHz())
	}
	if d := mixed.DurationS(); d < 3.9 || d > 4.1 {
		t.Errorf("duration = %v, want ~4", d)
	}
}

func TestConfigErrors(t *testing.T) {
	if _, err := Synthesize(Config{Kind: "eeg"}, 2); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := Synthesize(Config{Kind: KindECG, PathologicalFrac: 1.5}, 2); err == nil {
		t.Error("out-of-range pathological fraction accepted")
	}
	if _, err := Synthesize(Config{Kind: KindECG, RateDiv: [MaxChannels]int{1, -2, 1}}, 2); err == nil {
		t.Error("negative rate divisor accepted")
	}
	if _, err := Synthesize(DefaultConfig(KindEMG), 0); err == nil {
		t.Error("zero duration accepted")
	}
}

// TestDurationBound pins the record-length bound: non-finite durations and
// records over MaxSamples per channel are refused before any allocation,
// and a record of exactly MaxSamples is accepted.
func TestDurationBound(t *testing.T) {
	const rate = 250
	maxS := float64(MaxSamples) / rate
	cases := []struct {
		name     string
		duration float64
		want     string // "" = accepted
	}{
		{"one sample", 1.0 / rate, ""},
		{"paper window", 60, ""},
		{"at the bound", maxS, ""},
		{"one sample over", maxS + 1.0/rate, "record bound"},
		{"1e12 s", 1e12, "record bound"},
		{"zero", 0, "non-positive"},
		{"under one sample", 0.5 / rate, "non-positive"},
		{"negative", -1, "non-positive"},
		{"NaN", math.NaN(), "non-finite"},
		{"+Inf", math.Inf(1), "non-finite"},
		{"-Inf", math.Inf(-1), "non-finite"},
	}
	for _, tc := range cases {
		err := CheckDuration(tc.duration, rate)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: %v, want accepted", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		// Synthesize applies the same check (ECG's default rate is 250 Hz).
		if _, err := Synthesize(Config{Kind: KindECG}, tc.duration); err == nil {
			t.Errorf("%s: Synthesize accepted it", tc.name)
		}
	}
}

func TestFromECGRoundTrip(t *testing.T) {
	cfg := ecg.DefaultConfig()
	cfg.Seed = 9
	sig, err := ecg.Synthesize(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	src := FromECG(sig)
	if src.Kind() != KindECG || src.BaseRateHz() != 250 {
		t.Errorf("wrapped record: kind %s rate %v", src.Kind(), src.BaseRateHz())
	}
	for ch := 0; ch < ecg.NumLeads; ch++ {
		if len(src.Traces[ch]) != len(sig.Leads[ch]) {
			t.Fatalf("channel %d length mismatch", ch)
		}
	}
	if src.Cfg.EventRateHz*60 != cfg.HeartRateBPM {
		t.Errorf("event rate %v does not round-trip %v bpm", src.Cfg.EventRateHz, cfg.HeartRateBPM)
	}
}
