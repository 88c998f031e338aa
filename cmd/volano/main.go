// Command volano runs a single VolanoMark simulation and prints the
// throughput plus the scheduler statistics the paper collected through
// procfs.
//
// Usage:
//
//	volano -sched elsc -cpus 4 -smp -rooms 10 -messages 100 -stats
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"elsc/internal/experiments"
	"elsc/internal/workload"
	"elsc/internal/workload/volano"
)

func main() {
	var (
		schedName = flag.String("sched", "elsc", "scheduler: "+strings.Join(experiments.Policies, ", "))
		cpus      = flag.Int("cpus", 1, "number of processors")
		smp       = flag.Bool("smp", false, "SMP kernel build (1 CPU without this is the paper's UP)")
		rooms     = flag.Int("rooms", 10, "chat rooms (paper sweeps 5,10,15,20)")
		users     = flag.Int("users", 20, "users per room")
		messages  = flag.Int("messages", 100, "messages per user")
		seed      = flag.Int64("seed", 42, "simulation seed")
		horizon   = flag.Uint64("horizon", 3000, "virtual-seconds safety limit")
		showStats = flag.Bool("stats", false, "dump /proc-style scheduler statistics")
		showPS    = flag.Bool("ps", false, "dump a ps-style table of the top tasks")
	)
	flag.Parse()
	if err := experiments.CheckName(*schedName, experiments.Policies); err != nil {
		fmt.Fprintf(os.Stderr, "volano: -sched: %v\n", err)
		os.Exit(2)
	}
	if *rooms < 1 || *users < 1 || *messages < 1 {
		fmt.Fprintln(os.Stderr, "volano: -rooms, -users and -messages must be positive")
		os.Exit(2)
	}

	spec := experiments.MachineSpec{Label: fmt.Sprintf("%dP", *cpus), CPUs: *cpus, SMP: *smp || *cpus > 1}
	m := experiments.NewMachine(spec, experiments.Factory(*schedName),
		experiments.Scale{Seed: *seed, HorizonSeconds: *horizon}, nil)
	res := workload.NewVolano(m, volano.Config{
		Rooms:           *rooms,
		UsersPerRoom:    *users,
		MessagesPerUser: *messages,
	}).Run()
	threads, _ := res.Extra("threads")
	expected := uint64(*rooms) * uint64(*users) * uint64(*users) * uint64(*messages)
	fmt.Printf("VolanoMark: %d rooms x %d users x %d messages = %d threads, %d expected deliveries\n",
		*rooms, *users, *messages, int(threads), expected)
	if res.Ops != expected {
		fmt.Fprintf(os.Stderr, "warning: run hit the horizon with %d/%d deliveries\n", res.Ops, expected)
	}
	s := m.Stats()
	fmt.Printf("scheduler:           %s\n", m.Scheduler().Name())
	fmt.Printf("virtual time:        %.2f s\n", res.Seconds)
	fmt.Printf("throughput:          %.0f messages/second\n", res.Throughput)
	fmt.Printf("schedule() calls:    %d\n", s.SchedCalls)
	fmt.Printf("cycles per schedule: %.0f\n", s.CyclesPerSchedule())
	fmt.Printf("examined per call:   %.1f\n", s.ExaminedPerSchedule())
	fmt.Printf("recalc loop entries: %d\n", s.Recalcs)
	fmt.Printf("migrations:          %d\n", s.Migrations)
	fmt.Printf("sched share of kernel: %.1f%%\n", 100*s.SchedulerShareOfKernel())
	if *showStats {
		fmt.Println("--- /proc/schedstat ---")
		fmt.Print(s.Registry().Render())
	}
	if *showPS {
		fmt.Println("--- ps (top 25 by CPU) ---")
		lines := strings.SplitN(m.PS(), "\n", 27)
		if len(lines) > 26 {
			lines = lines[:26]
		}
		fmt.Println(strings.Join(lines, "\n"))
	}
}
