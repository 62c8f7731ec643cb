package netsim

import (
	"testing"
	"time"

	"bulktx/internal/params"
)

// withDenseNeighborIndex forces the radio channels to materialize their
// full neighbor index at construction instead of memoizing rows from
// the spatial hash on first use. The dense table is the oracle the lazy
// index is held to; it costs O(N + edges) memory up front, so only
// tests build it.
func withDenseNeighborIndex(on bool) Option {
	return func(s *Scenario) { s.denseIndex = on }
}

// backendMatrix names both neighbor indexes the simulator can run
// under, each on the 4-ary heap scheduler, plus the "auto-lazy" arm: a
// scenario built with no backend option at all, i.e. the default
// configuration every production run gets. The lazy spatial-hash index
// is a pure performance substitution: a fixed-seed run must produce
// byte-identical Results under each arm.
var backendMatrix = []struct {
	name string
	opts []Option
}{
	{"heap-lazy", []Option{withDenseNeighborIndex(false)}},
	{"heap-dense", []Option{withDenseNeighborIndex(true)}},
	{"auto-lazy", nil},
}

// TestFingerprintMatrixAcrossBackends pins the PR 2 golden fingerprints
// under every arm of the matrix: swapping the dense eager neighbor table
// for the lazy spatial-hash index must not move a single byte of any
// Result.
func TestFingerprintMatrixAcrossBackends(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"sensor", shortConfig(ModelSensor, 5, 100, 1)},
		{"wifi", shortConfig(ModelWifi, 5, 100, 1)},
		{"dual", shortConfig(ModelDual, 5, 100, 1)},
		{"multihop", func() Config {
			c := MultiHopConfig(5, 100, 1)
			c.Duration = testDuration
			return c
		}()},
	} {
		for _, b := range backendMatrix {
			t.Run(tc.name+"/"+b.name, func(t *testing.T) {
				s, err := tc.cfg.Scenario(b.opts...)
				if err != nil {
					t.Fatal(err)
				}
				res, err := RunScenario(s)
				if err != nil {
					t.Fatal(err)
				}
				if got := fingerprint(t, res); got != goldenPR2[tc.name] {
					t.Errorf("backend %s drifted from the PR 2 baseline:\n got %s\nwant %s",
						b.name, got, goldenPR2[tc.name])
				}
			})
		}
	}
}

// TestFingerprintMatrixLossyScenario covers the probabilistic path: a
// distance-dependent loss model draws from the channel RNG on every
// reception, so any backend that perturbed event order or neighbor
// iteration order would desynchronize the RNG stream and change the
// outcome. Every arm must agree byte-for-byte with the dense oracle.
func TestFingerprintMatrixLossyScenario(t *testing.T) {
	build := func(backend ...Option) *Scenario {
		t.Helper()
		opts := []Option{
			WithModel(ModelSensor),
			WithSenders(5),
			WithWorkload(CBRWorkload(params.HighRate)),
			WithLinks(LinkModel{SensorLossAt: DistanceLoss(0, 0.4, 40)}),
			WithDuration(scenarioDuration),
			WithSeed(1),
		}
		s, err := NewScenario(append(opts, backend...)...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	baseline, err := RunScenario(build(withDenseNeighborIndex(true)))
	if err != nil {
		t.Fatal(err)
	}
	if baseline.SensorStats.NoiseLosses == 0 {
		t.Fatal("lossy scenario lost nothing; the matrix is not exercising the RNG path")
	}
	want := fingerprint(t, baseline)
	for _, b := range backendMatrix {
		t.Run(b.name, func(t *testing.T) {
			res, err := RunScenario(build(b.opts...))
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(t, res); got != want {
				t.Errorf("lossy run diverged under %s:\n got %s\nwant %s", b.name, got, want)
			}
		})
	}
}

// goldenScaling10k pins NewScalingScenario(10000, 2 s): a 100x100 grid
// at exact 40 m spacing with 100 CBR senders, run on the lazy index.
// Regenerate with:
//
//	go test ./internal/netsim -run ScalingFingerprint10k -v
//
// after any intentional behavior change (and say so in the PR).
const goldenScaling10k = "5369484b35277d748b7456aa0a767050a2751706429370f1a2dba01e7dac48a6"

// TestScalingFingerprint10kGrid holds the committed large-grid baseline.
// Its pending set reaches thousands of events, so it pins the heap
// scheduler at a scale the small golden configs never reach. A
// 10k-node dense eager index is the O(N^2) table the lazy index
// replaced, so the dense arm of the matrix is not run here.
func TestScalingFingerprint10kGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node grid runs take a few seconds")
	}
	s, err := NewScalingScenario(10000, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, res); got != goldenScaling10k {
		t.Errorf("10k grid fingerprint drifted:\n got %s\nwant %s", got, goldenScaling10k)
	}
}
