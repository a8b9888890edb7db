#!/usr/bin/env bash
# The one-node-loop check on internal/reconfig's non-test code.
#
#   scripts/loopcheck.sh [repo-dir]
#
# The node's apply loop (apply.go) is the one goroutine that reads or writes
# the node's state once Start has returned, so this fails, naming each
# offending line:
#
#   - on a name the loop replaced: a second loop or owner (epoch, requeue,
#     consumeEngine, droppedBelow, decisionBuffer, housekeeping,
#     scheduleEngineStop, advanceToLocked, handoff, pumpCh, serveControl,
#     cfgWaiters, transitionWaiterLocked) or a second lock (execMu, snapMu);
#   - on a sync.Mutex or sync.RWMutex field of Node, on any n.mu, and on a
#     method of Node whose name ends in Locked: there is no lock for a caller
#     to hold;
#   - on an assignment to the machine, the current configuration, whether it is
#     installed, the apply cursor, the tick counters, an entry of chain,
#     configs or engines, or delete(n.engines…), outside apply.go and Start and
#     recoverChain, which run before the loop does;
#   - on an assignment to an entry of pending or to readWaiters, or
#     delete(n.pending…), outside the loop's files apply.go and read.go;
#   - on an assignment to the snapshot pipeline's bookkeeping (transfer,
#     transferCancel, snapDurable, retireNext, discardNext, retiring, an entry
#     of serving) or delete(n.serving…), outside apply.go and Start and
#     Bootstrap.
#
# CI's "One node loop" step and `make ci` run it.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

files=$(ls internal/reconfig/*.go | grep -v '_test\.go$')

if grep -nwE 'epoch|requeue|consumeEngine|droppedBelow|decisionBuffer|housekeeping|scheduleEngineStop|advanceToLocked|execMu|handoff|pumpCh|snapMu|serveControl|cfgWaiters|transitionWaiterLocked' $files; then
	echo "loopcheck: a replaced name is back" >&2
	exit 1
fi

awk '
function assigns(fields) {
	# fields = x, x++ / x-- / x += ..., or x as one target of a multiple assignment
	return $0 ~ ("[^A-Za-z0-9_]n\\.(" fields ")[[:space:]]*([-+]?=[^=]|\\+\\+|--)") ||
		$0 ~ ("[^A-Za-z0-9_]n\\.(" fields ")[[:space:]]*,.*[^=!<>]=[^=]")
}
function setsEntry(maps) { return $0 ~ ("[^A-Za-z0-9_]n\\.(" maps ")\\[[^]]*\\][[:space:]]*=[^=]") }
function flag() { print FILENAME ":" FNR ": " $0; bad = 1 }

FNR == 1 { fn = ""; node = 0 }
/^func / { fn = $0 }
/^type Node struct/ { node = 1 }
node && /^}/ { node = 0 }

node && /[[:space:]]sync\.(RW)?Mutex/ { flag() }
/[^A-Za-z0-9_]n\.mu[^A-Za-z0-9_]/ { flag() }
/^func \(n \*Node\) [A-Za-z0-9_]*Locked\(/ { flag() }

(assigns("machine|curID|initialized|appliedSlot|tick|staleTicks") || setsEntry("chain|configs|engines") || /delete\(n\.engines/) &&
	FILENAME !~ /apply\.go$/ && fn !~ /\) (Start|recoverChain)\(/ { flag() }

(setsEntry("pending") || /delete\(n\.pending/ || /[^A-Za-z0-9_]n\.readWaiters[[:space:]]*=[^=]/) &&
	FILENAME !~ /(apply|read)\.go$/ { flag() }

(assigns("transfer|transferCancel|snapDurable|retireNext|discardNext|retiring") || setsEntry("serving") || /delete\(n\.serving/) &&
	FILENAME !~ /apply\.go$/ && fn !~ /\) (Start|Bootstrap)\(/ { flag() }

END { exit bad }
' $files
