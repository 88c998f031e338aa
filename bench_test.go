// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6), plus the §8 future-work comparisons, the ablations,
// and pure-algorithm microbenchmarks of schedule() itself.
//
// Macro benchmarks run a scaled-down simulation per iteration and report
// the paper's metric through b.ReportMetric; cmd/sweep runs the same
// experiments at full paper scale. Shapes — who wins, by how much, where
// the crossover falls — are the reproduction target, not absolute numbers.
package elsc_test

import (
	"fmt"
	"testing"

	"elsc/internal/experiments"
	"elsc/internal/kernel"
	"elsc/internal/sched"
	"elsc/internal/sched/elsc"
	"elsc/internal/sched/o1"
	"elsc/internal/sched/vanilla"
	"elsc/internal/sim"
	"elsc/internal/task"
	"elsc/internal/workload"
	"elsc/internal/workload/kbuild"
	"elsc/internal/workload/volano"
	"elsc/internal/workload/webserver"
)

// benchScale is the per-iteration workload size for macro benchmarks.
func benchScale() experiments.Scale {
	return experiments.Scale{Messages: 10, Seed: 42, HorizonSeconds: 600}
}

// BenchmarkTable2_KernelCompile regenerates Table 2: light-load compile
// times under each scheduler on UP and 2P. Metric: virtual seconds to
// finish the build (lower is better; the paper's claim is near-equality).
func BenchmarkTable2_KernelCompile(b *testing.B) {
	cfg := kbuild.Config{Units: 48, MeanCompile: 40_000_000}
	for _, label := range []string{"UP", "2P"} {
		for _, policy := range []string{experiments.Reg, experiments.ELSC} {
			b.Run(fmt.Sprintf("%s/%s", policy, label), func(b *testing.B) {
				r := benchCell(b, experiments.Cell{Spec: experiments.SpecByLabel(label), Policy: policy, Load: workload.KBuild,
					Build: func(m *kernel.Machine) workload.Instance { return workload.NewKBuild(m, cfg) }}, benchScale())
				b.ReportMetric(r.Result.Seconds, "virt-sec")
			})
		}
	}
}

// benchCell runs one cell per iteration through the experiments runner
// and returns the last run.
func benchCell(b *testing.B, c experiments.Cell, sc experiments.Scale) experiments.WorkloadRun {
	b.Helper()
	var last experiments.WorkloadRun
	for i := 0; i < b.N; i++ {
		last = experiments.RunCells([]experiments.Cell{c}, sc)[0]
	}
	return last
}

// volanoCells lists one VolanoMark cell per room count, the paper's
// figure sweep at bench scale.
func volanoCells(policy, label string, rooms ...int) []experiments.Cell {
	return experiments.VolanoCells([]string{policy}, []experiments.MachineSpec{experiments.SpecByLabel(label)}, rooms, benchScale())
}

// benchVolano runs one VolanoMark cell per iteration and reports the
// requested metrics.
func benchVolano(b *testing.B, policy, label string, rooms int, report func(b *testing.B, r experiments.WorkloadRun)) {
	b.Helper()
	report(b, benchCell(b, volanoCells(policy, label, rooms)[0], benchScale()))
}

// BenchmarkFig2_RecalcEntries regenerates Figure 2: recalculation-loop
// entries per run (log-scale contrast between schedulers).
func BenchmarkFig2_RecalcEntries(b *testing.B) {
	for _, label := range []string{"UP", "4P"} {
		for _, policy := range []string{experiments.Reg, experiments.ELSC} {
			b.Run(fmt.Sprintf("%s/%s", policy, label), func(b *testing.B) {
				benchVolano(b, policy, label, 5, func(b *testing.B, r experiments.WorkloadRun) {
					b.ReportMetric(float64(r.Stats.Recalcs), "recalcs")
				})
			})
		}
	}
}

// BenchmarkFig3_Throughput regenerates Figure 3: message throughput by
// room count. The reg series should fall with rooms; elsc should not.
func BenchmarkFig3_Throughput(b *testing.B) {
	for _, label := range []string{"UP", "1P", "4P"} {
		for _, rooms := range []int{5, 20} {
			for _, policy := range []string{experiments.Reg, experiments.ELSC} {
				b.Run(fmt.Sprintf("%s/%s/rooms%d", policy, label, rooms), func(b *testing.B) {
					benchVolano(b, policy, label, rooms, func(b *testing.B, r experiments.WorkloadRun) {
						b.ReportMetric(r.Result.Throughput, "msgs/sec")
					})
				})
			}
		}
	}
}

// BenchmarkFig4_ScalingFactor regenerates Figure 4: 20-room/5-room
// throughput ratio (1.0 = perfect scaling with thread count).
func BenchmarkFig4_ScalingFactor(b *testing.B) {
	for _, label := range []string{"UP", "4P"} {
		for _, policy := range []string{experiments.Reg, experiments.ELSC} {
			b.Run(fmt.Sprintf("%s/%s", policy, label), func(b *testing.B) {
				var factor float64
				for i := 0; i < b.N; i++ {
					runs := experiments.RunCells(volanoCells(policy, label, 5, 20), benchScale())
					factor = runs[1].Result.Throughput / runs[0].Result.Throughput
				}
				b.ReportMetric(factor, "scaling")
			})
		}
	}
}

// BenchmarkFig5_ScheduleCost regenerates Figure 5: cycles per schedule()
// and tasks examined per call.
func BenchmarkFig5_ScheduleCost(b *testing.B) {
	for _, label := range []string{"UP", "4P"} {
		for _, policy := range []string{experiments.Reg, experiments.ELSC} {
			b.Run(fmt.Sprintf("%s/%s", policy, label), func(b *testing.B) {
				benchVolano(b, policy, label, 10, func(b *testing.B, r experiments.WorkloadRun) {
					b.ReportMetric(r.Stats.CyclesPerSchedule(), "cyc/sched")
					b.ReportMetric(r.Stats.ExaminedPerSchedule(), "examined")
				})
			})
		}
	}
}

// BenchmarkFig6_CallsAndMigrations regenerates Figure 6: schedule() call
// totals and tasks dispatched on a new processor (10-room runs).
func BenchmarkFig6_CallsAndMigrations(b *testing.B) {
	for _, label := range []string{"UP", "2P", "4P"} {
		for _, policy := range []string{experiments.Reg, experiments.ELSC} {
			b.Run(fmt.Sprintf("%s/%s", policy, label), func(b *testing.B) {
				benchVolano(b, policy, label, 10, func(b *testing.B, r experiments.WorkloadRun) {
					b.ReportMetric(float64(r.Stats.SchedCalls), "sched-calls")
					b.ReportMetric(float64(r.Stats.Migrations), "migrations")
				})
			})
		}
	}
}

// BenchmarkProfile_SchedulerShare regenerates the §4 kernel-profile claim:
// the stock scheduler burns 37-55% of kernel time under VolanoMark.
func BenchmarkProfile_SchedulerShare(b *testing.B) {
	for _, policy := range []string{experiments.Reg, experiments.ELSC} {
		b.Run(policy, func(b *testing.B) {
			benchVolano(b, policy, "UP", 20, func(b *testing.B, r experiments.WorkloadRun) {
				b.ReportMetric(100*r.Stats.SchedulerShareOfKernel(), "sched-%kernel")
			})
		})
	}
}

// BenchmarkAlt_FutureWorkSchedulers compares the §8 alternative designs
// on the 4P stress configuration.
func BenchmarkAlt_FutureWorkSchedulers(b *testing.B) {
	for _, policy := range experiments.Policies {
		b.Run(policy, func(b *testing.B) {
			benchVolano(b, policy, "4P", 10, func(b *testing.B, r experiments.WorkloadRun) {
				b.ReportMetric(r.Result.Throughput, "msgs/sec")
				b.ReportMetric(r.Stats.CyclesPerSchedule(), "cyc/sched")
			})
		})
	}
}

// BenchmarkLockWait_8CPU measures run-queue lock spin per schedule() on an
// eight-processor VolanoMark run — the scaling question past the paper's
// hardware. The per-CPU-lock policies (mq, o1) should sit an order of
// magnitude below the global-lock ones.
func BenchmarkLockWait_8CPU(b *testing.B) {
	for _, policy := range experiments.Policies {
		b.Run(policy, func(b *testing.B) {
			benchVolano(b, policy, "8P", 10, func(b *testing.B, r experiments.WorkloadRun) {
				spin := 0.0
				if r.Stats.SchedCalls > 0 {
					spin = float64(r.Stats.SpinCycles) / float64(r.Stats.SchedCalls)
				}
				b.ReportMetric(spin, "spin-cyc/sched")
				b.ReportMetric(r.Result.Throughput, "msgs/sec")
			})
		})
	}
}

// BenchmarkLockWait_Scale extends the lock-wait headline to 16 and 32
// processors: the global-lock policies' spin grows with every doubling,
// while the per-CPU-lock policies stay near zero.
func BenchmarkLockWait_Scale(b *testing.B) {
	for _, label := range []string{"16P", "32P"} {
		for _, policy := range experiments.Policies {
			b.Run(fmt.Sprintf("%s/%s", policy, label), func(b *testing.B) {
				benchVolano(b, policy, label, 10, func(b *testing.B, r experiments.WorkloadRun) {
					spin := 0.0
					if r.Stats.SchedCalls > 0 {
						spin = float64(r.Stats.SpinCycles) / float64(r.Stats.SchedCalls)
					}
					b.ReportMetric(spin, "spin-cyc/sched")
					b.ReportMetric(r.Result.Throughput, "msgs/sec")
				})
			})
		}
	}
}

// BenchmarkNUMA_DomainAwareness races domain-aware o1 against its
// topology-blind ablation on the 32P-NUMA spec at marginal load, the
// regime where the steal path runs constantly. Metrics: throughput and
// cross-domain migrations — the acceptance pair for the NUMA work.
func BenchmarkNUMA_DomainAwareness(b *testing.B) {
	spec := experiments.SpecByLabel("32P-NUMA")
	for _, blind := range []bool{false, true} {
		name := "domain-aware"
		if blind {
			name = "topology-blind"
		}
		b.Run(name, func(b *testing.B) {
			r := benchCell(b, experiments.O1TopologyCell(spec, blind, 3, benchScale()), benchScale())
			b.ReportMetric(r.Result.Throughput, "msgs/sec")
			b.ReportMetric(float64(r.Stats.CrossDomainMigrations), "cross-dom")
			b.ReportMetric(float64(r.Stats.RemoteCycles)/1e6, "remote-Mcyc")
		})
	}
}

// BenchmarkNUMA_Policies reports every policy's throughput on the
// 32P-NUMA machine with the scalable network stack — the 32-processor
// successor to the 8P lock-wait table.
func BenchmarkNUMA_Policies(b *testing.B) {
	spec := experiments.SpecByLabel("32P-NUMA")
	for _, policy := range experiments.Policies {
		b.Run(policy, func(b *testing.B) {
			cfg := volano.Config{Rooms: 10, MessagesPerUser: benchScale().Messages, Costs: volano.ScalableStackCosts()}
			r := benchCell(b, experiments.Cell{Spec: spec, Policy: policy, Load: workload.Volano,
				Build: func(m *kernel.Machine) workload.Instance { return workload.NewVolano(m, cfg) }}, benchScale())
			b.ReportMetric(r.Result.Throughput, "msgs/sec")
			b.ReportMetric(float64(r.Stats.CrossDomainMigrations), "cross-dom")
		})
	}
}

// BenchmarkFutureWork_Webserver regenerates the §8 Apache question:
// throughput and latency under each scheduler.
func BenchmarkFutureWork_Webserver(b *testing.B) {
	cfg := webserver.Config{Workers: 32, Requests: 4000}
	for _, policy := range []string{experiments.Reg, experiments.ELSC} {
		b.Run(policy, func(b *testing.B) {
			r := benchCell(b, experiments.Cell{Spec: experiments.SpecByLabel("2P"), Policy: policy, Load: workload.WebServer,
				Build: func(m *kernel.Machine) workload.Instance { return workload.NewWebServer(m, cfg) }}, benchScale())
			meanLat, _ := r.Result.Extra("mean_lat_ms")
			maxLat, _ := r.Result.Extra("max_lat_ms")
			b.ReportMetric(r.Result.Throughput, "req/sec")
			b.ReportMetric(meanLat, "mean-lat-ms")
			b.ReportMetric(maxLat, "max-lat-ms")
		})
	}
}

// BenchmarkAblation_SearchLimit sweeps ELSC's per-list examination cap
// around the paper's ncpu/2+5 choice.
func BenchmarkAblation_SearchLimit(b *testing.B) {
	for _, limit := range []int{1, 7, 40} {
		b.Run(fmt.Sprintf("limit%d", limit), func(b *testing.B) {
			c := volanoCells(experiments.ELSC, "4P", 10)[0]
			c.Factory = func(env *sched.Env) sched.Scheduler {
				return elsc.NewWithConfig(env, elsc.Config{SearchLimit: limit})
			}
			b.ReportMetric(benchCell(b, c, benchScale()).Result.Throughput, "msgs/sec")
		})
	}
}

// BenchmarkAblation_UPShortcut measures the uniprocessor mm-match early
// exit (§5.2), the mechanism behind ELSC's Table 2 edge on UP.
func BenchmarkAblation_UPShortcut(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "on"
		if disable {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			c := volanoCells(experiments.ELSC, "UP", 5)[0]
			c.Factory = func(env *sched.Env) sched.Scheduler {
				return elsc.NewWithConfig(env, elsc.Config{DisableUPShortcut: disable})
			}
			b.ReportMetric(benchCell(b, c, benchScale()).Result.Throughput, "msgs/sec")
		})
	}
}

// BenchmarkMicro_Schedule measures one schedule() decision in isolation on
// a prepopulated run queue — the pure O(n) scan versus the table lookup
// versus the O(1) bitmap pick, in real nanoseconds and simulated cycles.
func BenchmarkMicro_Schedule(b *testing.B) {
	for _, n := range []int{16, 128, 1024} {
		for _, policy := range []string{"reg", "elsc", "o1"} {
			b.Run(fmt.Sprintf("%s/tasks%d", policy, n), func(b *testing.B) {
				env := sched.NewEnv(1, false, func() int { return n })
				var s sched.Scheduler
				switch policy {
				case "reg":
					s = vanilla.New(env)
				case "elsc":
					s = elsc.New(env)
				default:
					s = o1.New(env)
				}
				rng := sim.NewRNG(1)
				tasks := make([]*task.Task, n)
				for i := range tasks {
					t := task.New(i+1, "t", nil, env.Epoch)
					t.Priority = 1 + rng.Intn(40)
					t.SetCounter(env.Epoch, 1+rng.Intn(2*t.Priority))
					tasks[i] = t
					s.AddToRunqueue(t)
				}
				idle := task.New(-1, "idle", nil, nil)
				idle.IsIdle = true

				var cycles uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := s.Schedule(0, idle)
					cycles += res.Cycles
					if res.Next != nil {
						// Put it back so the queue size is stable.
						next := res.Next
						s.DelFromRunqueue(next)
						s.AddToRunqueue(next)
					}
				}
				b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/op")
			})
		}
	}
}

// BenchmarkMicro_RunqueueOps measures add/del churn, where ELSC pays its
// table-indexing overhead.
func BenchmarkMicro_RunqueueOps(b *testing.B) {
	for _, policy := range []string{"reg", "elsc", "o1"} {
		b.Run(policy, func(b *testing.B) {
			env := sched.NewEnv(1, false, func() int { return 256 })
			var s sched.Scheduler
			switch policy {
			case "reg":
				s = vanilla.New(env)
			case "elsc":
				s = elsc.New(env)
			default:
				s = o1.New(env)
			}
			tasks := make([]*task.Task, 256)
			for i := range tasks {
				tasks[i] = task.New(i+1, "t", nil, env.Epoch)
				s.AddToRunqueue(tasks[i])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := tasks[i%len(tasks)]
				s.DelFromRunqueue(t)
				s.AddToRunqueue(t)
			}
		})
	}
}

// benchWorkloadScale sizes one registry-workload cell per iteration.
func benchWorkloadScale() experiments.Scale {
	return experiments.Scale{Messages: 10, Seed: 42, HorizonSeconds: 600, Quick: true}
}

// BenchmarkWorkload_DB races every policy on the syscall-heavy OLTP
// workload at 8 CPUs. Metrics: transaction throughput and p99 commit
// latency — the regime where wake/dispatch cost, not compute, decides.
func BenchmarkWorkload_DB(b *testing.B) {
	for _, policy := range experiments.Policies {
		b.Run(policy, func(b *testing.B) {
			last := benchCell(b, experiments.RegistryCell(
				experiments.SpecByLabel("8P"), policy, workload.DB, benchWorkloadScale()), benchWorkloadScale())
			b.ReportMetric(last.Result.Throughput, "txns/s")
			if p99, ok := last.Result.Extra("p99_txn_us"); ok {
				b.ReportMetric(p99, "p99-us")
			}
		})
	}
}

// BenchmarkWorkload_WakeStorm races every policy on the mass-wakeup
// workload on the 32P-NUMA spec. Metric: p99 wakeup-to-run latency — the
// tail the last herd member pays.
func BenchmarkWorkload_WakeStorm(b *testing.B) {
	for _, policy := range experiments.Policies {
		b.Run(policy, func(b *testing.B) {
			last := benchCell(b, experiments.RegistryCell(
				experiments.SpecByLabel("32P-NUMA"), policy, workload.WakeStorm, benchWorkloadScale()), benchWorkloadScale())
			if p99, ok := last.Result.Extra("p99_us"); ok {
				b.ReportMetric(p99, "p99-us")
			}
			b.ReportMetric(last.Result.Throughput, "wakes/s")
		})
	}
}
