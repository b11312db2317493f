// Distributed: Alg. 1 deployed as an actual network protocol — a
// coordinator process-equivalent owning the authoritative assignment, and
// one session runner per conference, all exchanging FREEZE / GRANTED /
// COMMIT / COMMITTED frames over loopback TCP. This is the deployment shape
// §IV-A describes: hops are computed at the session initiator's agent from
// fetched residual capacities and committed under the freeze.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"vconf"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	wl := vconf.LargeScaleWorkload(11)
	wl.NumUsers = 40
	wl.NumUserNodes = 64
	sc, err := vconf.GenerateWorkload(wl)
	if err != nil {
		return err
	}
	solver, err := vconf.NewSolver(sc,
		vconf.WithSeed(11),
		vconf.WithInit(vconf.InitNearest, 0),
		vconf.WithCountdown(2),
	)
	if err != nil {
		return err
	}
	start, err := solver.Bootstrap()
	if err != nil {
		return err
	}
	initial := solver.Evaluate(start)

	coord, err := solver.NewCoordinator(start, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer coord.Close()
	fmt.Printf("coordinator listening on %s; %d sessions, %d users, %d agents\n",
		coord.Addr(), sc.NumSessions(), sc.NumUsers(), sc.NumAgents())
	fmt.Printf("initial: traffic %.1f Mbps, delay %.1f ms, Φ=%.1f\n",
		initial.InterTraffic, initial.MeanDelayMS, initial.Objective)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	hopCounts := make([]int, sc.NumSessions())
	for s := 0; s < sc.NumSessions(); s++ {
		runner, err := solver.NewSessionRunner(vconf.SessionID(s))
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(i int, r *vconf.SessionRunner) {
			defer wg.Done()
			hops, err := r.Run(ctx, vconf.DialTCP(coord.Addr()), 20) // ≤ 20 hops per session
			if err != nil {
				log.Printf("runner %d: %v", i, err)
			}
			hopCounts[i] = hops
		}(s, runner)
	}
	wg.Wait()

	total := 0
	for _, h := range hopCounts {
		total += h
	}
	st := coord.Stats()
	final := solver.Evaluate(coord.Assignment())
	fmt.Printf("protocol: %d hops over TCP (%d commits, %d stays, %d rejected)\n",
		total, st.Commits, st.Stays, st.Rejects)
	fmt.Printf("final:   traffic %.1f Mbps, delay %.1f ms, Φ=%.1f\n",
		final.InterTraffic, final.MeanDelayMS, final.Objective)
	if err := solver.CheckFeasible(coord.Assignment()); err != nil {
		return fmt.Errorf("final assignment infeasible: %w", err)
	}
	fmt.Println("authoritative assignment feasible: constraints (1)-(8) hold")
	return nil
}
