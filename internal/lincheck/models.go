package lincheck

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"repro/internal/statemachine"
	"repro/internal/types"
)

// The sequential models below restate the semantics of the machines in
// internal/statemachine as pure functions over small comparable states.
// Every machine is deterministic, so each model computes the single legal
// (reply, next state) pair for an input and compares the observed output
// against it; an ambiguous operation (no observed output) takes the same
// transition unconditionally.

func okBytes(payload []byte) []byte {
	out := make([]byte, 0, 1+len(payload))
	out = append(out, byte(statemachine.StatusOK))
	return append(out, payload...)
}

func statusBytes(s statemachine.Status) []byte { return []byte{byte(s)} }

func uvarintBytes(v uint64) []byte {
	w := types.NewWriter(types.UvarintLen(v))
	w.Uvarint(v)
	return w.Bytes()
}

func fnv64(b []byte) uint64 {
	h := uint64(1469598103934665603)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func fnv64s(s string) uint64 { return fnv64([]byte(s)) }

// deterministicStep adapts an apply(state, input) -> (expectedReply, next)
// spec into a Model.Step. A nil expected reply means the op is malformed or
// unsupported by the model.
func deterministicStep[S comparable](apply func(S, []byte) ([]byte, S)) func(any, []byte, []byte, bool) (bool, any) {
	return func(state any, input, output []byte, hasOutput bool) (bool, any) {
		s := state.(S)
		reply, next := apply(s, input)
		if reply == nil {
			return false, state
		}
		if hasOutput && !bytes.Equal(output, reply) {
			return false, state
		}
		return true, next
	}
}

// ---- register KV ----

// regState is the per-key state of the KV machine: present/absent plus the
// value. Comparable, so Equal is ==.
type regState struct {
	present bool
	val     string
}

// RegisterModel models internal/statemachine's KV machine as one register
// per key, with partition-by-key decomposition. Supported ops: Put, Get,
// Delete, Append, CAS (the cross-key Keys/Size queries are not
// partitionable and are rejected).
func RegisterModel() Model {
	return Model{
		Name:     "kv-register",
		Init:     func() any { return regState{} },
		Step:     deterministicStep(regApply),
		Equal:    func(a, b any) bool { return a == b },
		ReadOnly: (*statemachine.KVStore)(nil).ReadOnly,
		Hash: func(s any) uint64 {
			rs := s.(regState)
			if !rs.present {
				return 0x9e3779b97f4a7c15
			}
			return fnv64s(rs.val)
		},
		Partition:  partitionByKey,
		DescribeOp: describeKVOp,
		DescribeState: func(s any) string {
			rs := s.(regState)
			if !rs.present {
				return "(absent)"
			}
			return fmt.Sprintf("%q", rs.val)
		},
	}
}

func regApply(s regState, input []byte) ([]byte, regState) {
	if len(input) == 0 {
		return nil, s
	}
	r := types.NewReader(input[1:])
	switch statemachine.KVOp(input[0]) {
	case statemachine.KVPut:
		_ = r.String() // key: partitioning already isolated it
		val := r.BytesField()
		if r.Err() != nil {
			return nil, s
		}
		return okBytes(nil), regState{present: true, val: string(val)}
	case statemachine.KVGet:
		_ = r.String() // key: partitioning already isolated it
		if r.Err() != nil {
			return nil, s
		}
		if !s.present {
			return statusBytes(statemachine.StatusNotFound), s
		}
		return okBytes([]byte(s.val)), s
	case statemachine.KVDelete:
		_ = r.String() // key: partitioning already isolated it
		if r.Err() != nil {
			return nil, s
		}
		return okBytes(nil), regState{}
	case statemachine.KVAppend:
		_ = r.String() // key: partitioning already isolated it
		suffix := r.BytesField()
		if r.Err() != nil {
			return nil, s
		}
		return okBytes(nil), regState{present: true, val: s.val + string(suffix)}
	case statemachine.KVCAS:
		_ = r.String() // key: partitioning already isolated it
		expect := r.BytesField()
		newVal := r.BytesField()
		if r.Err() != nil {
			return nil, s
		}
		if !s.present {
			return statusBytes(statemachine.StatusNotFound), s
		}
		if s.val != string(expect) {
			out := append(statusBytes(statemachine.StatusConflict), s.val...)
			return out, s
		}
		return okBytes(nil), regState{present: true, val: string(newVal)}
	default:
		return nil, s
	}
}

// kvOpKey extracts the key of a single-key KV op ("" for anything else).
func kvOpKey(input []byte) (string, bool) {
	if len(input) == 0 {
		return "", false
	}
	switch statemachine.KVOp(input[0]) {
	case statemachine.KVPut, statemachine.KVGet, statemachine.KVDelete,
		statemachine.KVAppend, statemachine.KVCAS:
		r := types.NewReader(input[1:])
		key := r.String()
		if r.Err() != nil {
			return "", false
		}
		return key, true
	default:
		return "", false
	}
}

func partitionByKey(ops []Operation) [][]Operation {
	groups := make(map[string][]Operation)
	for _, op := range ops {
		key, ok := kvOpKey(op.Input)
		if !ok {
			key = "\x00unpartitionable"
		}
		groups[key] = append(groups[key], op)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]Operation, 0, len(groups))
	for _, k := range keys {
		out = append(out, groups[k])
	}
	return out
}

func describeKVOp(input, output []byte, hasOutput bool) string {
	if len(input) == 0 {
		return "(empty op)"
	}
	r := types.NewReader(input[1:])
	var op string
	switch statemachine.KVOp(input[0]) {
	case statemachine.KVPut:
		op = fmt.Sprintf("put %s=%q", r.String(), r.BytesField())
	case statemachine.KVGet:
		op = fmt.Sprintf("get %s", r.String())
	case statemachine.KVDelete:
		op = fmt.Sprintf("del %s", r.String())
	case statemachine.KVAppend:
		op = fmt.Sprintf("append %s+=%q", r.String(), r.BytesField())
	case statemachine.KVCAS:
		op = fmt.Sprintf("cas %s %q->%q", r.String(), r.BytesField(), r.BytesField())
	default:
		op = fmt.Sprintf("kv-op(%d)", input[0])
	}
	return op + describeReply(output, hasOutput, func(p []byte) string { return fmt.Sprintf("%q", p) })
}

// ---- counter ----

// CounterModel models the counter machine: a single uint64 with add/get/set.
func CounterModel() Model {
	return Model{
		Name:          "counter",
		Init:          func() any { return uint64(0) },
		Step:          deterministicStep(counterApply),
		Equal:         func(a, b any) bool { return a == b },
		Hash:          func(s any) uint64 { return s.(uint64) * 0x9e3779b97f4a7c15 },
		ReadOnly:      (*statemachine.Counter)(nil).ReadOnly,
		DescribeOp:    describeCounterOp,
		DescribeState: func(s any) string { return fmt.Sprintf("%d", s.(uint64)) },
	}
}

func counterApply(s uint64, input []byte) ([]byte, uint64) {
	if len(input) == 0 {
		return nil, s
	}
	r := types.NewReader(input[1:])
	switch statemachine.CounterOp(input[0]) {
	case statemachine.CounterAdd:
		d := r.Uvarint()
		if r.Err() != nil {
			return nil, s
		}
		return okBytes(uvarintBytes(s + d)), s + d
	case statemachine.CounterGet:
		return okBytes(uvarintBytes(s)), s
	case statemachine.CounterSet:
		v := r.Uvarint()
		if r.Err() != nil {
			return nil, s
		}
		return okBytes(nil), v
	default:
		return nil, s
	}
}

func describeCounterOp(input, output []byte, hasOutput bool) string {
	if len(input) == 0 {
		return "(empty op)"
	}
	r := types.NewReader(input[1:])
	var op string
	switch statemachine.CounterOp(input[0]) {
	case statemachine.CounterAdd:
		op = fmt.Sprintf("add %d", r.Uvarint())
	case statemachine.CounterGet:
		op = "get"
	case statemachine.CounterSet:
		op = fmt.Sprintf("set %d", r.Uvarint())
	default:
		op = fmt.Sprintf("counter-op(%d)", input[0])
	}
	return op + describeReply(output, hasOutput, describeUvarint)
}

// ---- bank ----

// BankModel models the bank machine. The state is the canonical
// "acct=bal;..." encoding (sorted), which keeps it comparable. Transfers
// span accounts, so the bank history is checked as a single partition —
// fine at the concurrency widths the chaos workloads use.
func BankModel() Model {
	return Model{
		Name:       "bank",
		Init:       func() any { return "" },
		Step:       deterministicStep(bankApply),
		Equal:      func(a, b any) bool { return a == b },
		Hash:       func(s any) uint64 { return fnv64s(s.(string)) },
		ReadOnly:   (*statemachine.Bank)(nil).ReadOnly,
		DescribeOp: describeBankOp,
		DescribeState: func(s any) string {
			if s.(string) == "" {
				return "(no accounts)"
			}
			return s.(string)
		},
	}
}

func bankApply(s string, input []byte) ([]byte, string) {
	if len(input) == 0 {
		return nil, s
	}
	accounts := decodeBankState(s)
	r := types.NewReader(input[1:])
	switch statemachine.BankOp(input[0]) {
	case statemachine.BankOpen:
		acct := r.String()
		initial := r.Uvarint()
		if r.Err() != nil {
			return nil, s
		}
		if _, ok := accounts[acct]; ok {
			return statusBytes(statemachine.StatusConflict), s
		}
		accounts[acct] = initial
		return okBytes(nil), encodeBankState(accounts)
	case statemachine.BankDeposit:
		acct := r.String()
		amount := r.Uvarint()
		if r.Err() != nil {
			return nil, s
		}
		bal, ok := accounts[acct]
		if !ok {
			return statusBytes(statemachine.StatusNotFound), s
		}
		accounts[acct] = bal + amount
		return okBytes(uvarintBytes(bal + amount)), encodeBankState(accounts)
	case statemachine.BankTransfer:
		from := r.String()
		to := r.String()
		amount := r.Uvarint()
		if r.Err() != nil {
			return nil, s
		}
		fb, fok := accounts[from]
		_, tok := accounts[to]
		if !fok || !tok {
			return statusBytes(statemachine.StatusNotFound), s
		}
		if from == to {
			return okBytes(nil), s
		}
		if fb < amount {
			return statusBytes(statemachine.StatusConflict), s
		}
		accounts[from] = fb - amount
		accounts[to] += amount
		return okBytes(nil), encodeBankState(accounts)
	case statemachine.BankBalance:
		acct := r.String()
		if r.Err() != nil {
			return nil, s
		}
		bal, ok := accounts[acct]
		if !ok {
			return statusBytes(statemachine.StatusNotFound), s
		}
		return okBytes(uvarintBytes(bal)), s
	case statemachine.BankTotal:
		var total uint64
		for _, b := range accounts {
			total += b
		}
		return okBytes(uvarintBytes(total)), s
	default:
		return nil, s
	}
}

// encodeBankState renders accounts canonically: sorted "acct=bal" pairs
// joined by ";".
func encodeBankState(accounts map[string]uint64) string {
	names := make([]string, 0, len(accounts))
	for a := range accounts {
		names = append(names, a)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, a := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", a, accounts[a]))
	}
	return strings.Join(parts, ";")
}

func decodeBankState(s string) map[string]uint64 {
	accounts := make(map[string]uint64)
	if s == "" {
		return accounts
	}
	for _, part := range strings.Split(s, ";") {
		eq := strings.LastIndexByte(part, '=')
		if eq < 0 {
			continue
		}
		var bal uint64
		fmt.Sscanf(part[eq+1:], "%d", &bal)
		accounts[part[:eq]] = bal
	}
	return accounts
}

func describeBankOp(input, output []byte, hasOutput bool) string {
	if len(input) == 0 {
		return "(empty op)"
	}
	r := types.NewReader(input[1:])
	var op string
	switch statemachine.BankOp(input[0]) {
	case statemachine.BankOpen:
		op = fmt.Sprintf("open %s=%d", r.String(), r.Uvarint())
	case statemachine.BankDeposit:
		op = fmt.Sprintf("deposit %s+=%d", r.String(), r.Uvarint())
	case statemachine.BankTransfer:
		op = fmt.Sprintf("transfer %s->%s %d", r.String(), r.String(), r.Uvarint())
	case statemachine.BankBalance:
		op = fmt.Sprintf("balance %s", r.String())
	case statemachine.BankTotal:
		op = "total"
	default:
		op = fmt.Sprintf("bank-op(%d)", input[0])
	}
	return op + describeReply(output, hasOutput, describeUvarint)
}

// ---- shared describe helpers ----

func describeUvarint(payload []byte) string {
	r := types.NewReader(payload)
	v := r.Uvarint()
	if r.Err() != nil {
		return fmt.Sprintf("%x", payload)
	}
	return fmt.Sprintf("%d", v)
}

func describeReply(output []byte, hasOutput bool, payload func([]byte) string) string {
	if !hasOutput {
		return " -> ?"
	}
	st := statemachine.ReplyStatus(output)
	body := statemachine.ReplyPayload(output)
	if len(body) == 0 {
		return fmt.Sprintf(" -> %s", st)
	}
	return fmt.Sprintf(" -> %s %s", st, payload(body))
}
