// Migration: replace EVERY replica of a running service, one reconfiguration
// at a time, until the cluster runs on entirely different machines — while a
// client keeps writing and verifies that no acknowledged write is ever lost.
// This is the "rolling datacenter move" the composed design makes routine.
//
//	go run ./examples/migration
package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/statemachine"
	"repro/internal/transport"
	"repro/internal/types"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "migration:", err)
		os.Exit(1)
	}
}

func run() error {
	c := cluster.New(cluster.Config{
		Transport: transport.Options{BaseLatency: 200 * time.Microsecond, Jitter: 100 * time.Microsecond},
		Node:      cluster.FastOptions(),
		Factory:   statemachine.NewKVMachine,
	})
	defer c.Close()

	old := []types.NodeID{"old1", "old2", "old3"}
	fresh := []types.NodeID{"new1", "new2", "new3"}
	if err := c.CreateGroup(0, old, nil); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := c.WaitServing(ctx, 0, old...); err != nil {
		return err
	}
	for _, id := range fresh {
		if _, err := c.AddReplica(0, id); err != nil {
			return err
		}
	}

	// A writer that records every acknowledged key.
	var mu sync.Mutex
	var acked []string
	loadCtx, stopLoad := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := c.NewClient(client.Options{})
		i := 0
		for loadCtx.Err() == nil {
			i++
			key := fmt.Sprintf("doc-%05d", i)
			if _, err := cl.Submit(loadCtx, statemachine.EncodePut(key, []byte("payload"))); err == nil {
				mu.Lock()
				acked = append(acked, key)
				mu.Unlock()
			}
		}
	}()

	// Rolling replacement: one node per step, four configurations total.
	admin := c.NewClient(client.Options{})
	steps := [][]types.NodeID{
		{"old2", "old3", "new1"},
		{"old3", "new1", "new2"},
		{"new1", "new2", "new3"},
	}
	for _, members := range steps {
		time.Sleep(300 * time.Millisecond)
		cfg, err := admin.Reconfigure(ctx, members)
		if err != nil {
			stopLoad()
			wg.Wait()
			return err
		}
		fmt.Println("step:", cfg)
	}
	time.Sleep(300 * time.Millisecond)
	stopLoad()
	wg.Wait()

	// Verify on the fully migrated cluster: every acknowledged write is
	// readable; the old nodes are no longer part of the service.
	mu.Lock()
	keys := append([]string(nil), acked...)
	mu.Unlock()
	fmt.Printf("verifying %d acknowledged writes on the new cluster...\n", len(keys))
	verifier := c.NewClient(client.Options{})
	for _, key := range keys {
		reply, err := verifier.Submit(ctx, statemachine.EncodeGet(key))
		if err != nil {
			return err
		}
		if statemachine.ReplyStatus(reply) != statemachine.StatusOK {
			return fmt.Errorf("acknowledged write %s lost", key)
		}
	}
	final, err := verifier.Locate(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("migration complete: %s — zero acknowledged writes lost\n", final)
	return nil
}
