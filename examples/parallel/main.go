// Parallel: the decentralized deployment of Alg. 1 on real goroutines — one
// per session — under the paper's global FREEZE/UNFREEZE protocol. The run
// must land on a feasible assignment no worse than its Nrst start.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"vconf"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	wl := vconf.LargeScaleWorkload(5)
	wl.NumUsers = 60
	wl.NumUserNodes = 128
	sc, err := vconf.GenerateWorkload(wl)
	if err != nil {
		return err
	}
	solver, err := vconf.NewSolver(sc,
		vconf.WithSeed(5),
		vconf.WithInit(vconf.InitNearest, 0),
		vconf.WithCountdown(5), // 5 virtual s ≈ 5 ms wall per hop interval
	)
	if err != nil {
		return err
	}
	start, err := solver.Bootstrap()
	if err != nil {
		return err
	}
	initial := solver.Evaluate(start)
	fmt.Printf("workload: %d users, %d sessions, %d agents\n",
		sc.NumUsers(), sc.NumSessions(), sc.NumAgents())
	fmt.Printf("Nrst start: traffic %.1f Mbps, delay %.1f ms, Φ=%.1f\n\n",
		initial.InterTraffic, initial.MeanDelayMS, initial.Objective)

	// Paper protocol: the whole HOP runs under the freeze.
	frozen, err := solver.NewParallelEngine(start)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := frozen.Run(context.Background(), 500*time.Millisecond); err != nil {
		return err
	}
	_, fHops, fMoves := frozen.Snapshot()
	fRep := frozen.Report()
	fmt.Printf("FREEZE/UNFREEZE: %4d hops %4d moves in %v → traffic %.1f Mbps, Φ=%.1f\n",
		fHops, fMoves, time.Since(t0).Round(time.Millisecond), fRep.InterTraffic, fRep.Objective)

	if fRep.Objective > initial.Objective {
		return fmt.Errorf("frozen engine worsened the objective")
	}
	if !fRep.AllDelayOK {
		return fmt.Errorf("frozen engine violated the delay cap")
	}
	fmt.Println("\nfeasible and improved from the Nrst start")
	return nil
}
