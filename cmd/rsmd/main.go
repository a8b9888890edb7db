// Command rsmd hosts a complete reconfigurable-SMR key/value cluster in one
// process and exposes an interactive console for exploring it: submit
// operations, reconfigure live, crash and restart replicas, inspect the
// configuration chain.
//
// Usage:
//
//	rsmd -n 3 -spares 2                  # simulated network, in-memory stores
//	rsmd -n 3 -spares 2 -tcp             # real loopback TCP sockets
//	rsmd -n 3 -store wal                 # group-commit WAL persistence
//	rsmd -n 3 -store wal -dir /tmp/rsm   # ... at a path that outlives the process
//
// Console commands:
//
//	put <key> <value>      write through the replicated log
//	get <key>              read through the replicated log
//	del <key>              delete a key
//	members                show the current configuration
//	reconfig <id> ...      change membership to the listed node IDs
//	chain                  print the configuration chain
//	crash <id>             kill a replica process (store survives)
//	restart <id>           restart a crashed replica from its store
//	stats                  per-node counters
//	help | quit
package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/statemachine"
	"repro/internal/transport"
	"repro/internal/types"
)

func main() {
	os.Exit(run())
}

func run() int {
	n := 3
	spares := 2
	useTCP := false
	store := "mem"
	storeDir := ""
	args := os.Args[1:]
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-n":
			if i+1 < len(args) {
				i++
				fmt.Sscanf(args[i], "%d", &n)
			}
		case "-spares":
			if i+1 < len(args) {
				i++
				fmt.Sscanf(args[i], "%d", &spares)
			}
		case "-tcp":
			useTCP = true
		case "-store":
			if i+1 < len(args) {
				i++
				store = args[i]
			}
		case "-dir":
			if i+1 < len(args) {
				i++
				storeDir = args[i]
			}
		default:
			fmt.Fprintf(os.Stderr, "unknown flag %q\n", args[i])
			return 2
		}
	}
	if n < 1 {
		n = 1
	}
	if err := cluster.CheckStorage(store); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	c := cluster.New(cluster.Config{
		Transport:  transport.Options{BaseLatency: 200 * time.Microsecond, Jitter: 100 * time.Microsecond},
		TCP:        useTCP,
		Node:       cluster.FastOptions(),
		Factory:    statemachine.NewKVMachine,
		Storage:    store,
		StorageDir: storeDir,
	})
	defer c.Close()

	members := make([]types.NodeID, n)
	for i := range members {
		members[i] = types.NodeID(fmt.Sprintf("n%d", i+1))
	}
	if err := c.CreateGroup(0, members, nil); err != nil {
		fmt.Fprintln(os.Stderr, "bootstrap:", err)
		return 1
	}
	for i := 0; i < spares; i++ {
		id := types.NodeID(fmt.Sprintf("s%d", i+1))
		if _, err := c.AddReplica(0, id); err != nil {
			fmt.Fprintln(os.Stderr, "spare:", err)
			return 1
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	if err := c.WaitServing(ctx, 0, members...); err != nil {
		cancel()
		fmt.Fprintln(os.Stderr, "cluster never served:", err)
		return 1
	}
	cancel()

	cl := c.NewClient(client.Options{})
	mode := "simulated network"
	if useTCP {
		mode = "loopback TCP"
	}
	fmt.Printf("cluster up: %s (+%d spares, %s, store=%s). Type 'help' for commands.\n", c.Node(0, members[0]).CurrentConfig(), spares, mode, store)

	scanner := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("rsm> ")
		if !scanner.Scan() {
			fmt.Println()
			return 0
		}
		fields := strings.Fields(scanner.Text())
		if len(fields) == 0 {
			continue
		}
		if done := execute(c, cl, fields); done {
			return 0
		}
	}
}

func execute(c *cluster.Cluster, cl *client.Client, fields []string) (quit bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	switch fields[0] {
	case "quit", "exit":
		return true
	case "help":
		fmt.Println("put|get|del|members|reconfig|chain|crash|restart|stats|quit")
	case "put":
		if len(fields) < 3 {
			fmt.Println("usage: put <key> <value>")
			return
		}
		reply, err := cl.Submit(ctx, statemachine.EncodePut(fields[1], []byte(strings.Join(fields[2:], " "))))
		report(reply, err)
	case "get":
		if len(fields) != 2 {
			fmt.Println("usage: get <key>")
			return
		}
		reply, err := cl.Submit(ctx, statemachine.EncodeGet(fields[1]))
		if err == nil && statemachine.ReplyStatus(reply) == statemachine.StatusOK {
			fmt.Printf("%q\n", statemachine.ReplyPayload(reply))
			return
		}
		report(reply, err)
	case "del":
		if len(fields) != 2 {
			fmt.Println("usage: del <key>")
			return
		}
		reply, err := cl.Submit(ctx, statemachine.EncodeDelete(fields[1]))
		report(reply, err)
	case "members":
		cfg, err := cl.Locate(ctx)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Println(cfg)
	case "reconfig":
		if len(fields) < 2 {
			fmt.Println("usage: reconfig <node> [node...]")
			return
		}
		ids := make([]types.NodeID, 0, len(fields)-1)
		for _, f := range fields[1:] {
			ids = append(ids, types.NodeID(f))
		}
		cfg, err := cl.Reconfigure(ctx, ids)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Println("now", cfg)
	case "chain":
		res, err := cl.Chain(ctx)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Println("initial:", res.Initial)
		for _, rec := range res.Records {
			fmt.Printf("  cfg%d --wedged@%d--> %s\n", rec.From, rec.WedgeSlot, rec.To)
		}
	case "crash":
		if len(fields) != 2 {
			fmt.Println("usage: crash <node>")
			return
		}
		c.Crash(types.NodeID(fields[1]))
		fmt.Println("crashed", fields[1])
	case "restart":
		if len(fields) != 2 {
			fmt.Println("usage: restart <node>")
			return
		}
		if err := c.Restart(types.NodeID(fields[1])); err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Println("restarted", fields[1])
	case "stats":
		for _, id := range c.Processes() {
			n := c.Node(0, id)
			if n == nil {
				continue
			}
			st := n.Stats()
			cfgID, slot := n.AppliedSlot()
			fmt.Printf("  %-4s cfg%d@%d applied=%d wedges=%d fetched=%d served=%d violations=%d\n",
				id, cfgID, slot, st.Applied, st.Wedges, st.SnapshotsFetched, st.SnapshotsServed, st.InvariantViolations)
		}
	default:
		fmt.Printf("unknown command %q (try 'help')\n", fields[0])
	}
	return false
}

func report(reply []byte, err error) {
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(statemachine.ReplyStatus(reply))
}
