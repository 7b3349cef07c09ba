package chaos

import (
	"testing"
	"time"

	"deepum/internal/correlation"
	"deepum/internal/sim"
)

func TestScenarioRegistry(t *testing.T) {
	names := Names()
	if len(names) < 7 {
		t.Fatalf("only %d scenarios: %v", len(names), names)
	}
	if names[0] != ScenarioNone {
		t.Fatalf("first scenario = %q, want %q", names[0], ScenarioNone)
	}
	for _, n := range names {
		sc, err := ByName(n)
		if err != nil {
			t.Fatalf("ByName(%q): %v", n, err)
		}
		if sc.Name != n {
			t.Fatalf("ByName(%q).Name = %q", n, sc.Name)
		}
		if sc.Description == "" {
			t.Fatalf("scenario %q has no description", n)
		}
		if n == ScenarioNone {
			if sc.Active() {
				t.Fatal("the none scenario must be inactive")
			}
		} else if !sc.Active() {
			t.Fatalf("scenario %q perturbs nothing", n)
		}
	}
	if _, err := ByName("no-such-scenario"); err == nil {
		t.Fatal("unknown scenario name accepted")
	}
	if sc, err := ByName(""); err != nil || sc.Name != ScenarioNone {
		t.Fatalf("ByName(\"\") = (%v, %v), want the none scenario", sc.Name, err)
	}
}

// TestNilInjectorInert: every method is safe and inert on a nil *Injector,
// so callers never branch on "chaos enabled".
func TestNilInjectorInert(t *testing.T) {
	var in *Injector
	if d, fail := in.PerturbTransfer(0, 1<<20, sim.HostToDevice, 100); d != 100 || fail {
		t.Fatalf("nil PerturbTransfer = (%d, %v)", d, fail)
	}
	if got := in.FaultBatchCap(64); got != 64 {
		t.Fatalf("nil FaultBatchCap = %d", got)
	}
	if in.DropNotify() || in.DupNotify() {
		t.Fatal("nil injector dropped or duplicated a notify")
	}
	if in.MigratorStall() != 0 {
		t.Fatal("nil injector stalled the migrator")
	}
	cfg := correlation.DefaultBlockTableConfig()
	if in.ShrinkTables(cfg) != cfg {
		t.Fatal("nil injector shrank the tables")
	}
	in.NotePrefetchRetry()
	in.NotePrefetchGiveUp()
	if in.NoteKernelLaunch() {
		t.Fatal("nil injector fired a supervisor cancel")
	}
	if in.VirtualDeadline() != 0 {
		t.Fatal("nil injector imposed a deadline")
	}
}

// TestSupervisorCancelFiresOnce: the launch counter fires exactly at the
// configured launch, once, and never on an inactive scenario.
func TestSupervisorCancelFiresOnce(t *testing.T) {
	in := NewInjector(Scenario{CancelAfterKernels: 3}, 1)
	fired := 0
	for i := 0; i < 10; i++ {
		if in.NoteKernelLaunch() {
			if i != 2 {
				t.Fatalf("cancel fired at launch %d, want launch 3", i+1)
			}
			fired++
		}
	}
	if fired != 1 {
		t.Fatalf("cancel fired %d times, want once", fired)
	}
	if in.Stats.InjectedCancels != 1 {
		t.Fatalf("InjectedCancels = %d", in.Stats.InjectedCancels)
	}
	quiet := NewInjector(Scenario{TransferFailProb: 0.5}, 1)
	for i := 0; i < 100; i++ {
		if quiet.NoteKernelLaunch() {
			t.Fatal("cancel fired without CancelAfterKernels")
		}
	}
}

// TestInterrupts: the Interrupts classifier covers exactly the two
// run-ending fields, and the builtin interrupting scenarios carry them.
func TestInterrupts(t *testing.T) {
	if (Scenario{}).Interrupts() {
		t.Fatal("zero scenario interrupts")
	}
	if !(Scenario{CancelAfterKernels: 1}).Interrupts() ||
		!(Scenario{VirtualDeadline: 1}).Interrupts() {
		t.Fatal("interrupting field not classified")
	}
	for _, name := range []string{"cancel-mid-iteration", "deadline-tight"} {
		sc, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if !sc.Interrupts() {
			t.Fatalf("builtin scenario %q does not interrupt", name)
		}
	}
	for _, name := range []string{"none", "flaky-link", "everything"} {
		sc, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Interrupts() {
			t.Fatalf("scenario %q unexpectedly interrupts", name)
		}
	}
}

// TestInjectorDeterminism: two injectors with the same scenario and seed
// produce byte-identical perturbation sequences; a different seed diverges.
func TestInjectorDeterminism(t *testing.T) {
	sc, err := ByName("everything")
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) ([]sim.Duration, []bool, Stats) {
		in := NewInjector(sc, seed)
		durs := make([]sim.Duration, 0, 500)
		fails := make([]bool, 0, 500)
		at := sim.Time(0)
		for i := 0; i < 500; i++ {
			d, fail := in.PerturbTransfer(at, sim.BlockSize, sim.HostToDevice, 1000)
			durs = append(durs, d)
			fails = append(fails, fail)
			at = at.Add(d)
			in.DropNotify()
			in.DupNotify()
			in.MigratorStall()
		}
		return durs, fails, in.Stats
	}
	d1, f1, s1 := run(7)
	d2, f2, s2 := run(7)
	if s1 != s2 {
		t.Fatalf("same seed, different stats:\n%+v\n%+v", s1, s2)
	}
	for i := range d1 {
		if d1[i] != d2[i] || f1[i] != f2[i] {
			t.Fatalf("same seed diverged at step %d: (%d,%v) vs (%d,%v)", i, d1[i], f1[i], d2[i], f2[i])
		}
	}
	_, _, s3 := run(8)
	if s1 == s3 {
		t.Fatal("different seeds produced identical stats (suspicious)")
	}
}

// TestConsecutiveFailureBound: even with TransferFailProb = 1 the injector
// never fails more than MaxConsecutiveFails transfers in a row, so every
// retry loop terminates.
func TestConsecutiveFailureBound(t *testing.T) {
	in := NewInjector(Scenario{TransferFailProb: 1, MaxConsecutiveFails: 3}, 1)
	consec, maxConsec := 0, 0
	for i := 0; i < 1000; i++ {
		_, fail := in.PerturbTransfer(0, sim.BlockSize, sim.HostToDevice, 1000)
		if fail {
			consec++
			if consec > maxConsec {
				maxConsec = consec
			}
		} else {
			consec = 0
		}
	}
	if maxConsec != 3 {
		t.Fatalf("max consecutive failures = %d, want exactly 3 (prob 1 capped by bound)", maxConsec)
	}
	if in.Stats.TransferFailures == 0 {
		t.Fatal("no failures recorded at probability 1")
	}
}

// TestBackoffBounded: the one retry backoff, sim.RetryBackoff, starts at
// 10 µs and doubles up to its cap at attempt 6; the injector's Backoff
// returns it and adds it to Stats.BackoffTime.
func TestBackoffBounded(t *testing.T) {
	prev := sim.Duration(0)
	for a := 0; a <= 6; a++ {
		b := sim.RetryBackoff(a)
		if b <= prev {
			t.Fatalf("backoff not increasing: RetryBackoff(%d) = %d after %d", a, b, prev)
		}
		prev = b
	}
	if sim.RetryBackoff(6) != sim.RetryBackoff(100) {
		t.Fatalf("backoff unbounded: RetryBackoff(6)=%d, RetryBackoff(100)=%d", sim.RetryBackoff(6), sim.RetryBackoff(100))
	}
	if sim.RetryBackoff(0) != 10*time.Microsecond || sim.RetryBackoff(6) != 640*time.Microsecond {
		t.Fatalf("RetryBackoff(0), (6) = %d, %d; want 10us, 640us", sim.RetryBackoff(0), sim.RetryBackoff(6))
	}
	in := NewInjector(Scenario{}, 1)
	if in.Backoff(2) != sim.RetryBackoff(2) || in.Backoff(9) != sim.RetryBackoff(9) {
		t.Fatal("Injector.Backoff differs from sim.RetryBackoff")
	}
	if want := sim.RetryBackoff(2) + sim.RetryBackoff(9); in.Stats.BackoffTime != want {
		t.Fatalf("BackoffTime = %d, want %d", in.Stats.BackoffTime, want)
	}
}

func TestShrinkTablesFloor(t *testing.T) {
	cfg := correlation.DefaultBlockTableConfig()
	in := NewInjector(Scenario{TableRowsDivisor: 1 << 30}, 1)
	got := in.ShrinkTables(cfg)
	if got.NumRows != 1 {
		t.Fatalf("NumRows = %d, want floor of 1", got.NumRows)
	}
	if got.Assoc != cfg.Assoc || got.NumSuccs != cfg.NumSuccs {
		t.Fatal("ShrinkTables changed fields other than NumRows")
	}
	in16 := NewInjector(Scenario{TableRowsDivisor: 16}, 1)
	if got := in16.ShrinkTables(cfg); got.NumRows != cfg.NumRows/16 {
		t.Fatalf("NumRows = %d, want %d", got.NumRows, cfg.NumRows/16)
	}
}

func TestFaultBatchCap(t *testing.T) {
	in := NewInjector(Scenario{FaultBatchCap: 4}, 1)
	if got := in.FaultBatchCap(64); got != 4 {
		t.Fatalf("cap = %d, want 4", got)
	}
	if in.Stats.BatchCapHits != 1 {
		t.Fatalf("BatchCapHits = %d", in.Stats.BatchCapHits)
	}
	// A cap at or above the base is not a hit.
	if got := in.FaultBatchCap(3); got != 3 {
		t.Fatalf("cap = %d, want base 3 (cap above base)", got)
	}
	if in.Stats.BatchCapHits != 1 {
		t.Fatalf("BatchCapHits = %d after non-binding call", in.Stats.BatchCapHits)
	}
}

// TestHostPressureWindow: transfers inside the spike window slow by the
// factor; outside they are untouched.
func TestHostPressureWindow(t *testing.T) {
	period := sim.Duration(1_000_000)
	in := NewInjector(Scenario{
		HostPressureFactor:   5,
		HostPressurePeriod:   period,
		HostPressureDuration: sim.Duration(300_000),
	}, 1)
	base := sim.Duration(1000)
	if d, _ := in.PerturbTransfer(sim.Time(100_000), sim.BlockSize, sim.HostToDevice, base); d != 5*base {
		t.Fatalf("in-window transfer = %d, want %d", d, 5*base)
	}
	if d, _ := in.PerturbTransfer(sim.Time(500_000), sim.BlockSize, sim.HostToDevice, base); d != base {
		t.Fatalf("out-of-window transfer = %d, want %d", d, base)
	}
	// The window repeats every period.
	if d, _ := in.PerturbTransfer(sim.Time(period).Add(sim.Duration(100_000)), sim.BlockSize, sim.HostToDevice, base); d != 5*base {
		t.Fatalf("second-period in-window transfer = %d, want %d", d, 5*base)
	}
	if in.Stats.PressureWindows != 2 {
		t.Fatalf("PressureWindows = %d, want 2", in.Stats.PressureWindows)
	}
}
