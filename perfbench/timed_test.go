package main

import (
	"reflect"
	"testing"

	"elsc/internal/experiments"
	"elsc/internal/sched"
	"elsc/internal/sim"
	"elsc/internal/workload/volano"
)

// TestTimedPolicyMatchesPlain runs one small cell per policy with and
// without the timing wrapper: the simulated digests must be equal, and
// the wrapper must keep every method of the concrete policy, so the
// kernel's and the harness's hook assertions still find them.
func TestTimedPolicyMatchesPlain(t *testing.T) {
	small := &volano.Config{Rooms: 2, UsersPerRoom: 4, MessagesPerUser: 5}
	for _, c := range cross(experiments.Policies, []string{"32P-NUMA"}, small, nil) {
		t.Run(c.policy, func(t *testing.T) {
			j := job{c, 7}
			eng := new(sim.Engine)
			plain := runJob(eng, j, experiments.Factory(c.policy), newHostRef())
			rec := &policyTimes{}
			wrapped := runJob(eng, j, timedFactory(c.policy, rec), nil)
			for _, r := range []jobRun{plain, wrapped} {
				if r.err != nil {
					t.Fatal(r.err)
				}
			}
			if digest(j, &plain) != digest(j, &wrapped) {
				t.Fatalf("wrapped digest differs from plain:\n%v\n%v", wrapped.stats, plain.stats)
			}
			if len(rec.schedule) == 0 || len(rec.enqueue) == 0 || rec.total <= 0 {
				t.Fatalf("wrapper timed nothing: %d schedules, %d enqueues, %v", len(rec.schedule), len(rec.enqueue), rec.total)
			}

			env := sched.NewEnv(4, true, nil)
			concrete := reflect.TypeOf(experiments.Factory(c.policy)(env))
			timedType := reflect.TypeOf(timedFactory(c.policy, rec)(env))
			for i := 0; i < concrete.NumMethod(); i++ {
				m := concrete.Method(i)
				got, ok := timedType.MethodByName(m.Name)
				if !ok {
					t.Errorf("%v lost method %s of %v", timedType, m.Name, concrete)
					continue
				}
				// Drop the receivers and compare the signatures.
				if got.Type.NumIn() != m.Type.NumIn() || got.Type.NumOut() != m.Type.NumOut() {
					t.Errorf("%s: signature %v, want %v", m.Name, got.Type, m.Type)
				}
			}
		})
	}
}
