package chaos

import "fmt"

// Supervisor-level chaos. The scenarios in scenario.go perturb the UM
// substrate inside one run; these perturb the layer above — the multi-run
// supervisor's worker pool. Orchestrated faults (kill-restart, shard kill,
// admission and retry storms, disk faults, oversubscription contention)
// are not registry entries: the tests and the deepum-soak -storm drill
// drive them directly, because a live supervisor cannot inject them by
// itself.
type SupervisorScenario struct {
	Name        string
	Description string

	// WorkerPanicProb is the per-run probability that the worker executing
	// the run panics mid-flight. The supervisor recovers the worker, marks
	// the run failed, releases its quota, and keeps serving.
	WorkerPanicProb float64
}

// Active reports whether the scenario injects anything into a live
// supervisor.
func (s SupervisorScenario) Active() bool { return s.WorkerPanicProb > 0 }

// SupervisorScenarioNone is the name of the identity scenario.
const SupervisorScenarioNone = "none"

func builtinSupervisor() []SupervisorScenario {
	return []SupervisorScenario{
		{
			Name:        SupervisorScenarioNone,
			Description: "no injection (baseline)",
		},
		{
			Name:            "worker-panic",
			Description:     "each run's worker panics mid-run with 30% probability; pool recovers, run fails typed, quota released",
			WorkerPanicProb: 0.30,
		},
	}
}

// SupervisorScenarios returns every named supervisor scenario, the
// identity scenario first.
func SupervisorScenarios() []SupervisorScenario { return builtinSupervisor() }

// SupervisorScenarioByName resolves a supervisor scenario; the empty
// string resolves to "none".
func SupervisorScenarioByName(name string) (SupervisorScenario, error) {
	if name == "" {
		name = SupervisorScenarioNone
	}
	names := make([]string, 0, len(builtinSupervisor()))
	for _, s := range builtinSupervisor() {
		if s.Name == name {
			return s, nil
		}
		names = append(names, s.Name)
	}
	return SupervisorScenario{}, fmt.Errorf("chaos: unknown supervisor scenario %q (have %v)", name, names)
}
