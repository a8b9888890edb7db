package statemachine

import (
	"repro/internal/types"
)

// BankOp enumerates the bank machine's operations. Values start at 1.
type BankOp uint8

const (
	// BankOpen creates an account with an initial balance. Reply: OK, or
	// Conflict if the account exists.
	BankOpen BankOp = 1
	// BankDeposit adds to an account. Reply: OK+new balance or NotFound.
	BankDeposit BankOp = 2
	// BankTransfer moves amount between accounts. Reply: OK, NotFound,
	// or Conflict on insufficient funds.
	BankTransfer BankOp = 3
	// BankBalance reads one balance. Reply: OK+uvarint or NotFound.
	BankBalance BankOp = 4
	// BankTotal sums all balances. Reply: OK+uvarint. Used to check the
	// conservation invariant (property P4).
	BankTotal BankOp = 5
)

// Bank is a deterministic account-ledger machine whose total balance is
// conserved by transfers, making double-application of a command across a
// reconfiguration boundary observable. Accounts are hashed across a fixed
// set of shards with copy-on-write snapshot forks (shardMap), like KVStore.
type Bank struct {
	shardMap[uint64]
}

var _ Machine = (*Bank)(nil)

// balances writes a balance as a uvarint.
var balances = &shardCodec[uint64]{
	write: (*types.Writer).Uvarint,
	read:  (*types.Reader).Uvarint,
	size:  func(uint64) int { return 16 },
}

// NewBank returns an empty bank machine.
func NewBank() *Bank {
	m := &Bank{}
	m.init(balances)
	return m
}

// NewBankMachine is a Factory for Bank.
func NewBankMachine() Machine { return NewBank() }

// EncodeOpen encodes an account-creation op.
func EncodeOpen(account string, initial uint64) []byte {
	w := types.NewWriter(2 + len(account) + 8)
	w.Byte(byte(BankOpen))
	w.String(account)
	w.Uvarint(initial)
	return w.Bytes()
}

// EncodeDeposit encodes a deposit op.
func EncodeDeposit(account string, amount uint64) []byte {
	w := types.NewWriter(2 + len(account) + 8)
	w.Byte(byte(BankDeposit))
	w.String(account)
	w.Uvarint(amount)
	return w.Bytes()
}

// EncodeTransfer encodes a transfer op.
func EncodeTransfer(from, to string, amount uint64) []byte {
	w := types.NewWriter(3 + len(from) + len(to) + 8)
	w.Byte(byte(BankTransfer))
	w.String(from)
	w.String(to)
	w.Uvarint(amount)
	return w.Bytes()
}

// EncodeBalance encodes a balance query.
func EncodeBalance(account string) []byte {
	w := types.NewWriter(2 + len(account))
	w.Byte(byte(BankBalance))
	w.String(account)
	return w.Bytes()
}

// EncodeTotal encodes a total-balance query.
func EncodeTotal() []byte { return []byte{byte(BankTotal)} }

// ReadOnly implements ReadOnlyDetector: balance and total queries never
// mutate the ledger.
func (m *Bank) ReadOnly(op []byte) bool {
	if len(op) == 0 {
		return false
	}
	switch BankOp(op[0]) {
	case BankBalance, BankTotal:
		return true
	default:
		return false
	}
}

// Apply implements Machine.
func (m *Bank) Apply(op []byte) []byte {
	if len(op) == 0 {
		return statusReply(StatusBadOp)
	}
	r := types.NewReader(op[1:])
	switch BankOp(op[0]) {
	case BankOpen:
		acct := r.String()
		initial := r.Uvarint()
		if r.Err() != nil {
			return statusReply(StatusBadOp)
		}
		if _, ok := m.get(acct); ok {
			return statusReply(StatusConflict)
		}
		m.set(acct, initial)
		return okReply(nil)
	case BankDeposit:
		acct := r.String()
		amount := r.Uvarint()
		if r.Err() != nil {
			return statusReply(StatusBadOp)
		}
		bal, ok := m.get(acct)
		if !ok {
			return statusReply(StatusNotFound)
		}
		m.set(acct, bal+amount)
		return okReply(uvarintBytes(bal + amount))
	case BankTransfer:
		from := r.String()
		to := r.String()
		amount := r.Uvarint()
		if r.Err() != nil {
			return statusReply(StatusBadOp)
		}
		fb, fok := m.get(from)
		tb, tok := m.get(to)
		if !fok || !tok {
			return statusReply(StatusNotFound)
		}
		if from == to {
			return okReply(nil) // self-transfer is a no-op
		}
		if fb < amount {
			return statusReply(StatusConflict)
		}
		m.set(from, fb-amount)
		m.set(to, tb+amount)
		return okReply(nil)
	case BankBalance:
		acct := r.String()
		if r.Err() != nil {
			return statusReply(StatusBadOp)
		}
		bal, ok := m.get(acct)
		if !ok {
			return statusReply(StatusNotFound)
		}
		return okReply(uvarintBytes(bal))
	case BankTotal:
		return okReply(uvarintBytes(m.Total()))
	default:
		return statusReply(StatusBadOp)
	}
}

// Total returns the sum of all balances (test helper, mirrors BankTotal).
func (m *Bank) Total() uint64 {
	var total uint64
	for i := range m.shards {
		for _, b := range m.shards[i] {
			total += b
		}
	}
	return total
}

// DecodeUvarintReply parses a reply payload holding a single uvarint.
func DecodeUvarintReply(payload []byte) (uint64, error) {
	r := types.NewReader(payload)
	v := r.Uvarint()
	if err := r.Err(); err != nil {
		return 0, err
	}
	return v, nil
}

func uvarintBytes(v uint64) []byte {
	w := types.NewWriter(types.UvarintLen(v))
	w.Uvarint(v)
	return w.Bytes()
}

// balance is a test helper returning an account's balance (0 if absent).
func (m *Bank) balance(acct string) uint64 {
	v, _ := m.get(acct)
	return v
}
