// Elastic: the motivating scenario of FRAPPE-style elastic services — scale
// a replicated KV service out 3→5→7 and back in 7→3 while clients keep
// writing, and print the committed-ops timeline to show the service never
// stops.
//
//	go run ./examples/elastic
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
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/types"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "elastic:", err)
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

	all := []types.NodeID{"n1", "n2", "n3", "n4", "n5", "n6", "n7"}
	if err := c.CreateGroup(0, all[:3], nil); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := c.WaitServing(ctx, 0, all[:3]...); err != nil {
		return err
	}
	for _, id := range all[3:] {
		if _, err := c.AddReplica(0, id); err != nil {
			return err
		}
	}

	// Background writers.
	timeline := stats.NewTimeline()
	loadCtx, stopLoad := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := c.NewClient(client.Options{})
			i := 0
			for loadCtx.Err() == nil {
				i++
				key := fmt.Sprintf("w%d-%d", w, i)
				if _, err := cl.Submit(loadCtx, statemachine.EncodePut(key, []byte("x"))); err == nil {
					timeline.Record()
				}
			}
		}(w)
	}

	admin := c.NewClient(client.Options{})
	plan := [][]types.NodeID{all[:5], all[:7], all[:5], all[:3]}
	for _, members := range plan {
		time.Sleep(600 * time.Millisecond)
		timeline.MarkNow(fmt.Sprintf("scale to %d", len(members)))
		cfg, err := admin.Reconfigure(ctx, members)
		if err != nil {
			stopLoad()
			wg.Wait()
			return err
		}
		fmt.Printf("reconfigured: %s\n", cfg)
	}
	time.Sleep(600 * time.Millisecond)
	stopLoad()
	wg.Wait()

	fmt.Printf("\ncommitted %d writes; longest commit gap %v\n",
		timeline.Count(), timeline.LongestGap().Round(time.Millisecond))
	fmt.Println("ops per 100ms across the elastic chain:")
	for i, n := range timeline.Series(100 * time.Millisecond) {
		bar := ""
		for j := int64(0); j < n/5; j++ {
			bar += "#"
		}
		fmt.Printf("  %4dms %4d %s\n", i*100, n, bar)
	}
	for _, m := range timeline.Marks() {
		fmt.Printf("  mark %q at +%v\n", m.Label, m.At.Sub(timeline.Start()).Round(time.Millisecond))
	}
	return nil
}
