// Failover: a replica crashes; the service keeps running on the surviving
// quorum, and a reconfiguration replaces the dead node with a standby —
// restoring full fault-tolerance without restarting the service.
//
//	go run ./examples/failover
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/statemachine"
	"repro/internal/transport"
	"repro/internal/types"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "failover:", err)
		os.Exit(1)
	}
}

func run() error {
	c := cluster.New(cluster.Config{
		Transport: transport.Options{BaseLatency: 200 * time.Microsecond, Jitter: 100 * time.Microsecond},
		Node:      cluster.FastOptions(),
		Factory:   statemachine.NewBankMachine,
	})
	defer c.Close()

	if err := c.CreateGroup(0, []types.NodeID{"n1", "n2", "n3"}, nil); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := c.WaitServing(ctx, 0, "n1", "n2", "n3"); err != nil {
		return err
	}

	cl := c.NewClient(client.Options{})
	mustOK(cl.Submit(ctx, statemachine.EncodeOpen("alice", 100)))
	mustOK(cl.Submit(ctx, statemachine.EncodeOpen("bob", 100)))
	mustOK(cl.Submit(ctx, statemachine.EncodeTransfer("alice", "bob", 30)))
	fmt.Println("bank open; alice→bob transfer done")

	// Disaster: n3 dies hard.
	crashAt := time.Now()
	c.Crash("n3")
	fmt.Println("n3 crashed")

	// The surviving majority still serves (2 of 3).
	mustOK(cl.Submit(ctx, statemachine.EncodeTransfer("bob", "alice", 10)))
	fmt.Println("still serving on {n1,n2} — quorum holds")

	// Repair: replace n3 with a standby via reconfiguration. The cluster
	// starts the standby's replica, which fetches the bank state (including
	// session dedup tables) and joins.
	cfg, err := c.Reconfigure(ctx, 0, []types.NodeID{"n1", "n2", "standby"})
	if err != nil {
		return err
	}
	if err := c.WaitServing(ctx, 0, "standby"); err != nil {
		return err
	}
	fmt.Printf("repaired in %v: now %s\n", time.Since(crashAt).Round(time.Millisecond), cfg)

	// Full fault tolerance is back: the conservation invariant held
	// through crash + repair.
	reply, err := cl.Submit(ctx, statemachine.EncodeTotal())
	if err != nil {
		return err
	}
	total, err := statemachine.DecodeUvarintReply(statemachine.ReplyPayload(reply))
	if err != nil {
		return err
	}
	fmt.Printf("total balance after failover: %d (expected 200)\n", total)
	if total != 200 {
		return fmt.Errorf("conservation violated: %d", total)
	}
	return nil
}

func mustOK(reply []byte, err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "submit:", err)
		os.Exit(1)
	}
	if st := statemachine.ReplyStatus(reply); st != statemachine.StatusOK {
		fmt.Fprintln(os.Stderr, "op status:", st)
		os.Exit(1)
	}
}
