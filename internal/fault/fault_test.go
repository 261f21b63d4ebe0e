package fault_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/qerr"
	"repro/internal/resilience"
	"repro/internal/store"
	"repro/internal/xmltree"
)

func TestParseFaults(t *testing.T) {
	t.Run("schedules", func(t *testing.T) {
		for _, tc := range []struct {
			spec  string
			seed  int64
			every fault.PerClass
			args  fault.PerClass
		}{
			// scripts/chaos_smoke.sh
			{"seed=7,err500=11,reset=17,truncate=23:48,latency=5:2ms", 7,
				fault.PerClass{fault.Err500: 11, fault.Reset: 17, fault.Truncate: 23, fault.Latency: 5},
				fault.PerClass{fault.Truncate: 48, fault.Latency: int64(2 * time.Millisecond)}},
			// README, storage classes
			{"seed=7,eio=11,badcrc=13,shortread=17,mmap=19,torn=23", 7,
				fault.PerClass{fault.EIO: 11, fault.BadCRC: 13, fault.ShortRead: 17, fault.Mmap: 19, fault.Torn: 23},
				fault.PerClass{}},
			// admission and kernel classes
			{" seed=-3 , shed=5,starve=7:64,panic=701,morselpanic=211,cancel=11", -3,
				fault.PerClass{fault.Shed: 5, fault.Starve: 7, fault.Panic: 701, fault.MorselPanic: 211, fault.Cancel: 11},
				fault.PerClass{fault.Starve: 64}},
		} {
			p, err := fault.Parse(tc.spec)
			if err != nil {
				t.Fatalf("Parse(%q): %v", tc.spec, err)
			}
			if p.Seed != tc.seed || p.Every != tc.every || p.Args != tc.args {
				t.Errorf("Parse(%q) = seed %d every %v args %v, want seed %d every %v args %v",
					tc.spec, p.Seed, p.Every, p.Args, tc.seed, tc.every, tc.args)
			}
		}
		if p, err := fault.Parse("  "); p != nil || err != nil {
			t.Errorf("blank spec = %v, %v; want nil, nil", p, err)
		}
	})

	t.Run("defaults", func(t *testing.T) {
		p, err := fault.Parse("latency=1,truncate=1,starve=1")
		if err != nil {
			t.Fatal(err)
		}
		if got := time.Duration(p.Arg(fault.Latency)); got != 2*time.Millisecond {
			t.Errorf("default latency %v, want 2ms", got)
		}
		if got := p.Arg(fault.Truncate); got != 16 {
			t.Errorf("default truncation %d, want 16", got)
		}
		if got := p.Arg(fault.Starve); got != 4096 {
			t.Errorf("default starved quota %d, want 4096", got)
		}
	})

	t.Run("residue", func(t *testing.T) {
		for c := fault.Class(0); c < fault.NumClasses; c++ {
			for _, seed := range []int64{-13, -5, -1, 0, 3, 42} {
				for _, n := range []int64{1, 2, 5, 7} {
					p := &fault.Plan{Seed: seed}
					p.Every[c] = n
					want := (seed%n + n) % n
					fired := 0
					for i := int64(0); i < 3*n; i++ {
						if p.Hits(c, i) {
							fired++
							if i%n != want {
								t.Fatalf("%v seed %d period %d fired at %d, want residue %d", c, seed, n, i, want)
							}
						}
						for other := fault.Class(0); other < fault.NumClasses; other++ {
							if other != c && p.Hits(other, i) {
								t.Fatalf("%v fired with only %v enabled", other, c)
							}
						}
					}
					if fired != 3 {
						t.Fatalf("%v seed %d period %d fired %d times in %d events, want 3", c, seed, n, fired, 3*n)
					}
				}
			}
		}
	})

	t.Run("rejects", func(t *testing.T) {
		for _, tc := range []struct{ spec, names string }{
			{"bogus=3", "bogus"},                     // unknown class
			{"err500=1:5ms", "err500"},               // :suffix on a class that takes none
			{"eio=3:1", "eio"},                       //
			{"seed=7:1", "seed"},                     //
			{"eio=x", "eio"},                         // malformed numbers
			{"latency=3:zzz", "latency"},             //
			{"truncate=5:abc", "truncate"},           //
			{"starve=2:1k", "starve"},                //
			{"shed=-1", "shed"},                      // negative period
			{"eio=3,badcrc=2,eio=4", "eio"},          // duplicates
			{"seed=1,shed=2,seed=2", "seed"},         //
			{"eio", "eio"},                           // not key=value
			{"eio=3,", `""`},                         //
			{"err500=9223372036854775808", "err500"}, // out of range
		} {
			p, err := fault.Parse(tc.spec)
			if err == nil {
				t.Errorf("Parse(%q) = %+v, want an error", tc.spec, p)
				continue
			}
			if !strings.Contains(err.Error(), tc.names) {
				t.Errorf("Parse(%q) error %q does not name %s", tc.spec, err, tc.names)
			}
		}
	})

	// One spec mixing HTTP, admission and storage classes arms all three
	// sites from one arming point.
	t.Run("mixed", func(t *testing.T) {
		p, err := fault.Parse("seed=0,err500=1,shed=1,torn=1")
		if err != nil {
			t.Fatal(err)
		}
		before := obs.FaultsInjected.Load()
		defer fault.Arm(p)()

		srv := httptest.NewServer(resilience.InjectFaults(http.NotFoundHandler()))
		defer srv.Close()
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("HTTP site: status %d, want the injected 500", resp.StatusCode)
		}

		if _, err := governor.New(governor.Config{}).Admit(context.Background()); !errors.Is(err, qerr.ErrOverload) {
			t.Errorf("admission site: %v, want the injected shed", err)
		}

		frag, err := xmltree.ParseString("<a><b/></a>", "t.xml", xmltree.DefaultLimits())
		if err != nil {
			t.Fatal(err)
		}
		if err := store.WriteDoc([]string{t.TempDir()}, "t.xml", frag); err == nil || !strings.Contains(err.Error(), "torn write") {
			t.Errorf("storage site: %v, want the injected torn write", err)
		}

		if got := p.Injected(); got != 3 {
			t.Errorf("plan injected %d faults, want 3", got)
		}
		if got := obs.FaultsInjected.Load() - before; got != 3 {
			t.Errorf("faults_injected_total rose by %d, want 3", got)
		}
	})
}

func TestArmDisarm(t *testing.T) {
	a, b := &fault.Plan{}, &fault.Plan{}
	disarmA := fault.Arm(a)
	if fault.Armed() != a {
		t.Fatal("Arm did not arm")
	}
	disarmB := fault.Arm(b)
	disarmA() // a is no longer armed: leaves b alone
	if fault.Armed() != b {
		t.Fatal("disarming a replaced plan disarmed its successor")
	}
	disarmB()
	disarmB()
	if fault.Armed() != nil {
		t.Fatal("disarm left a plan armed")
	}
}

// FuzzParseFaults: Parse reads a command-line flag, so no input may
// panic it, and an accepted spec yields a plan every site can consult.
func FuzzParseFaults(f *testing.F) {
	for _, s := range []string{
		"seed=7,err500=11,reset=17,truncate=23:48,latency=5:2ms",
		"seed=7,eio=11,badcrc=13,shortread=17,mmap=19,torn=23",
		"seed=-3,shed=5,starve=7:64,panic=701,morselpanic=211,cancel=11",
		"", "eio", "eio=3,", "=", ":", "seed=9223372036854775807,err503=9223372036854775807",
		"seed=-9223372036854775808,latency=1:-5s",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := fault.Parse(spec)
		if err != nil || p == nil {
			return
		}
		for c := fault.Class(0); c < fault.NumClasses; c++ {
			if p.Every[c] < 0 {
				t.Fatalf("Parse(%q) accepted negative period %d for %v", spec, p.Every[c], c)
			}
			for _, i := range []int64{0, 1, 1 << 40} {
				p.Hits(c, i)
			}
			if p.Arg(c) < 0 {
				t.Fatalf("Parse(%q): %v argument %d", spec, c, p.Arg(c))
			}
		}
	})
}
