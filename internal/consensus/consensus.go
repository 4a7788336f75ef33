// Package consensus implements the broadcast distributed voting protocol of
// DINAR's initialization phase (§4.1): before federated training begins, all
// clients vote on the index of the most privacy-sensitive layer. The method
// follows the distributed multi-choice voting/ranking (DMVR) approach: every
// node broadcasts its preferred value to all other nodes; each node then
// selects the value with the absolute majority among everything it received.
// The protocol tolerates Byzantine nodes that send arbitrary, inconsistent
// values to different peers, as long as a majority of nodes are honest and
// agree.
package consensus

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// ErrNoQuorum is returned when honest nodes fail to reach an absolute
// majority on any single value.
var ErrNoQuorum = errors.New("consensus: no absolute majority")

// Node is one participant of the vote.
type Node struct {
	// ID is the node index.
	ID int
	// Vote is the value the node proposes (for DINAR: its locally measured
	// most-sensitive layer index).
	Vote int
	// Byzantine marks a faulty node that sends arbitrary per-recipient
	// values instead of its vote.
	Byzantine bool
}

// message is one broadcast value from sender to recipient.
type message struct {
	from  int
	value int
}

// Result summarizes a protocol run.
type Result struct {
	// Value is the agreed-upon value (the layer index to obfuscate).
	Value int
	// Decisions holds each node's local decision, indexed by node ID
	// (including Byzantine nodes' computed decisions).
	Decisions []int
	// Tally is the global count of honest first-round votes per value.
	Tally map[int]int
}

// Run executes one round of broadcast voting among the nodes. numChoices
// bounds the value domain [0, numChoices); Byzantine nodes draw their lies
// from it using rng. The call is deterministic given rng.
//
// Each node runs as its own goroutine and communicates only via channels,
// mirroring the message-passing structure of the real protocol.
func Run(ctx context.Context, nodes []Node, numChoices int, rng *rand.Rand) (*Result, error) {
	n := len(nodes)
	if n == 0 {
		return nil, errors.New("consensus: no nodes")
	}
	if numChoices <= 0 {
		return nil, fmt.Errorf("consensus: numChoices = %d", numChoices)
	}
	for _, node := range nodes {
		if !node.Byzantine && (node.Vote < 0 || node.Vote >= numChoices) {
			return nil, fmt.Errorf("consensus: node %d vote %d out of range [0,%d)", node.ID, node.Vote, numChoices)
		}
	}

	// Pre-draw Byzantine lies deterministically (rng is not goroutine-safe).
	lies := make(map[int][]int, n)
	for _, node := range nodes {
		if node.Byzantine {
			vals := make([]int, n)
			for i := range vals {
				vals[i] = rng.Intn(numChoices)
			}
			lies[node.ID] = vals
		}
	}

	inboxes := make([]chan message, n)
	for i := range inboxes {
		inboxes[i] = make(chan message, n)
	}

	var wg sync.WaitGroup
	decisions := make([]int, n)
	decisionOK := make([]bool, n)
	for idx, node := range nodes {
		wg.Add(1)
		go func(idx int, node Node) {
			defer wg.Done()
			// Broadcast phase: send a value to every peer (and self).
			for peer := 0; peer < n; peer++ {
				v := node.Vote
				if node.Byzantine {
					v = lies[node.ID][peer]
				}
				select {
				case inboxes[peer] <- message{from: node.ID, value: v}:
				case <-ctx.Done():
					return
				}
			}
			// Collect phase: receive exactly one message from every node.
			counts := make(map[int]int, numChoices)
			for received := 0; received < n; received++ {
				select {
				case msg := <-inboxes[idx]:
					counts[msg.value]++
				case <-ctx.Done():
					return
				}
			}
			// Decide: absolute majority, else leave undecided.
			for v, c := range counts {
				if 2*c > n {
					decisions[idx] = v
					decisionOK[idx] = true
					return
				}
			}
		}(idx, node)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// An honest node's decision stands for the protocol outcome; all honest
	// nodes see the same honest votes, so their decisions coincide whenever a
	// quorum exists.
	tally := make(map[int]int)
	for _, node := range nodes {
		if !node.Byzantine {
			tally[node.Vote]++
		}
	}
	agreed := -1
	for idx, node := range nodes {
		if node.Byzantine {
			continue
		}
		if !decisionOK[idx] {
			return nil, fmt.Errorf("%w: honest node %d undecided", ErrNoQuorum, node.ID)
		}
		if agreed == -1 {
			agreed = decisions[idx]
		} else if decisions[idx] != agreed {
			return nil, fmt.Errorf("%w: honest nodes disagree (%d vs %d)", ErrNoQuorum, agreed, decisions[idx])
		}
	}
	if agreed == -1 {
		return nil, fmt.Errorf("%w: no honest nodes", ErrNoQuorum)
	}
	return &Result{Value: agreed, Decisions: decisions, Tally: tally}, nil
}
