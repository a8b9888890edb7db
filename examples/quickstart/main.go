// Quickstart: boot a 3-replica reconfigurable KV service, write and read
// through the replicated log, grow the cluster to 5 replicas WITHOUT
// restarting anything, and keep serving.
//
//	go run ./examples/quickstart
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
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// 1. A cluster over a simulated network with realistic latencies.
	c := cluster.New(cluster.Config{
		Transport: transport.Options{BaseLatency: 200 * time.Microsecond, Jitter: 100 * time.Microsecond},
		Node:      cluster.FastOptions(),
		Factory:   statemachine.NewKVMachine,
	})
	defer c.Close()

	if err := c.CreateGroup(0, []types.NodeID{"n1", "n2", "n3"}, nil); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.WaitServing(ctx, 0, "n1", "n2", "n3"); err != nil {
		return err
	}
	fmt.Println("serving:", c.Node(0, "n1").CurrentConfig())

	// 2. A client session: linearizable writes and reads via consensus.
	cl := c.NewClient(client.Options{})
	if _, err := cl.Submit(ctx, statemachine.EncodePut("greeting", []byte("hello, composed SMR"))); err != nil {
		return err
	}
	reply, err := cl.Submit(ctx, statemachine.EncodeGet("greeting"))
	if err != nil {
		return err
	}
	fmt.Printf("read back: %q\n", statemachine.ReplyPayload(reply))

	// 3. Live reconfiguration: two spares join; configuration 2 starts a
	//    fresh static engine seeded with the transferred state. No node
	//    restarts, no service interruption.
	for _, id := range []types.NodeID{"n4", "n5"} {
		if _, err := c.AddReplica(0, id); err != nil {
			return err
		}
	}
	newCfg, err := cl.Reconfigure(ctx, []types.NodeID{"n1", "n2", "n3", "n4", "n5"})
	if err != nil {
		return err
	}
	fmt.Println("reconfigured to:", newCfg)

	// 4. The data survived the configuration change.
	reply, err = cl.Submit(ctx, statemachine.EncodeGet("greeting"))
	if err != nil {
		return err
	}
	fmt.Printf("after reconfig: %q\n", statemachine.ReplyPayload(reply))

	// 5. Inspect the configuration chain the service hops along.
	chain, err := cl.Chain(ctx)
	if err != nil {
		return err
	}
	fmt.Println("chain:")
	fmt.Println("  initial:", chain.Initial)
	for _, rec := range chain.Records {
		fmt.Printf("  cfg%d --wedged at slot %d--> %s\n", rec.From, rec.WedgeSlot, rec.To)
	}
	return nil
}
