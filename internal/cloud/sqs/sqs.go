// Package sqs simulates Amazon Simple Queue Service, which the warehouse
// uses for reliable asynchronous communication between its modules
// (Section 6): the front end feeds the loader request queue and the query
// request queue; the query processors feed the query response queue.
//
// Semantics follow SQS:
//
//   - Send enqueues a message;
//   - Receive leases the oldest visible message for a visibility timeout,
//     optionally waiting for one to arrive (long polling, up to MaxWait in
//     SQS); until the lease expires the message is invisible to other
//     receivers;
//   - Delete acknowledges a message using the receipt handle of its
//     current lease;
//   - ChangeVisibility renews a lease.
//
// If a virtual instance crashes without deleting its message, the lease
// expires and the message becomes visible again, so another instance takes
// over the job — the fault-tolerance mechanism of Section 3. A Delete with
// a stale receipt (the lease expired and someone else holds the message)
// fails with ErrStaleReceipt rather than acknowledging work the caller no
// longer owns.
//
// Leases and long polls run on the service's clock, the wall clock or, in
// tests, a stepped one. Each API call also returns a modeled latency for the
// virtual-time accounting, and is metered for billing (QS$ per request,
// Table 3).
package sqs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/meter"
)

// Backend is the service name used for metering and billing.
const Backend = "sqs"

// Errors returned by the service.
var (
	ErrNoSuchQueue    = errors.New("sqs: no such queue")
	ErrQueueExists    = errors.New("sqs: queue already exists")
	ErrStaleReceipt   = errors.New("sqs: receipt handle is stale")
	ErrEmptyQueueName = errors.New("sqs: empty queue name")
)

// DefaultRTT is the modeled latency of one SQS API call.
const DefaultRTT = 8 * time.Millisecond

// Message is a received message. Body carries the application payload;
// Receipt must be presented to Delete or ChangeVisibility.
type Message struct {
	ID           string
	Body         string
	Receipt      string
	ReceiveCount int
}

type storedMessage struct {
	id           string
	body         string
	seq          int64
	visibleAt    time.Time
	receipt      string // receipt of the current lease, "" if never received
	receiveCount int
}

type queue struct {
	messages map[string]*storedMessage
	// wake is closed, and replaced, whenever a message may have become
	// visible sooner than a waiting receiver's timer says: a send, a lease
	// shortened or released, a redrive into the queue. Closing wakes every
	// waiter at once, and none misses it: a waiter takes the channel under
	// the lock of the scan that found nothing.
	wake chan struct{}
	// redrive, when set, moves a message to the dead-letter queue once it
	// has been received maxReceive times without being deleted.
	redrive    string
	maxReceive int
}

// wakeLocked wakes every receiver waiting on q.
func (q *queue) wakeLocked() {
	close(q.wake)
	q.wake = make(chan struct{})
}

// Service is an in-memory SQS endpoint. It is safe for concurrent use.
type Service struct {
	ledger *meter.Ledger
	clock  clock.Clock

	mu     sync.Mutex
	queues map[string]*queue
	seq    int64
}

// New returns a simulated SQS endpoint on clk recording into ledger.
func New(ledger *meter.Ledger, clk clock.Clock) *Service {
	if ledger == nil {
		panic("sqs: ledger is required")
	}
	return &Service{ledger: ledger, clock: clk, queues: make(map[string]*queue)}
}

// CreateQueue creates an empty queue.
func (s *Service) CreateQueue(name string) error {
	if name == "" {
		return ErrEmptyQueueName
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.queues[name]; ok {
		return fmt.Errorf("%w: %q", ErrQueueExists, name)
	}
	s.queues[name] = &queue{
		messages: make(map[string]*storedMessage),
		wake:     make(chan struct{}),
	}
	return nil
}

// SetRedrivePolicy configures a dead-letter queue: once a message of
// queueName has been received maxReceive times without being deleted, the
// next receive moves it to deadLetterQueue instead of delivering it — the
// SQS mechanism that stops poison messages (e.g. an unparsable document)
// from being retried forever. Both queues must exist.
func (s *Service) SetRedrivePolicy(queueName, deadLetterQueue string, maxReceive int) error {
	if maxReceive < 1 {
		return fmt.Errorf("sqs: maxReceive must be at least 1")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	q, err := s.getQueue(queueName)
	if err != nil {
		return err
	}
	if _, err := s.getQueue(deadLetterQueue); err != nil {
		return err
	}
	if deadLetterQueue == queueName {
		return fmt.Errorf("sqs: queue cannot be its own dead-letter queue")
	}
	q.redrive = deadLetterQueue
	q.maxReceive = maxReceive
	return nil
}

// redriveLocked moves m to q's dead-letter queue, visible from now, if its
// receive count has exhausted the redrive policy, and reports whether it did.
func (s *Service) redriveLocked(q *queue, m *storedMessage, now time.Time) bool {
	if q.redrive == "" || m.receiveCount < q.maxReceive {
		return false
	}
	dlq, err := s.getQueue(q.redrive)
	if err != nil {
		return false
	}
	delete(q.messages, m.id)
	s.seq++
	moved := &storedMessage{id: m.id, body: m.body, seq: s.seq, visibleAt: now}
	dlq.messages[m.id] = moved
	dlq.wakeLocked()
	return true
}

func (s *Service) getQueue(name string) (*queue, error) {
	q, ok := s.queues[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchQueue, name)
	}
	return q, nil
}

// Send enqueues a message and returns its ID and the modeled latency.
func (s *Service) Send(queueName, body string) (string, time.Duration, error) {
	s.mu.Lock()
	q, err := s.getQueue(queueName)
	if err != nil {
		s.mu.Unlock()
		return "", 0, err
	}
	s.seq++
	id := fmt.Sprintf("m-%08d", s.seq)
	q.messages[id] = &storedMessage{id: id, body: body, seq: s.seq, visibleAt: s.clock.Now()}
	s.ledger.Record(Backend, "send", 1, 1, int64(len(body)))
	q.wakeLocked()
	s.mu.Unlock()
	return id, DefaultRTT, nil
}

// MaxWait is the longest long poll SQS accepts (ReceiveMessage's
// WaitTimeSeconds of 20).
const MaxWait = 20 * time.Second

// Receive leases the oldest visible message for the given visibility
// timeout. When none is visible it waits up to wait for one — a long poll;
// wait 0 is a short poll — and returns (nil, latency, nil) if none arrives in
// time or ctx ends the wait first. Like SQS, the call is one billed request
// whether it delivers or not and however long it waits.
func (s *Service) Receive(ctx context.Context, queueName string, visibility, wait time.Duration) (*Message, time.Duration, error) {
	deadline := s.clock.Now().Add(wait)
	for billed := false; ; billed = true {
		s.mu.Lock()
		q, err := s.getQueue(queueName)
		if err != nil {
			s.mu.Unlock()
			return nil, 0, err
		}
		if !billed {
			s.ledger.Record(Backend, "receive", 1, 1, 0)
		}
		now := s.clock.Now()
		msg, nextVisible := s.leaseLocked(q, now, visibility)
		wake := q.wake
		s.mu.Unlock()
		if msg != nil {
			return msg, DefaultRTT, nil
		}
		sleep := deadline.Sub(now)
		if sleep <= 0 {
			return nil, DefaultRTT, nil
		}
		// Sleep until a wake-up, the earliest lease expiry, the deadline or
		// the end of ctx, whichever comes first.
		if !nextVisible.IsZero() {
			sleep = min(sleep, nextVisible.Sub(now))
		}
		timer := s.clock.NewTimer(sleep)
		select {
		case <-wake:
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return nil, DefaultRTT, nil
		}
		timer.Stop()
	}
}

// leaseLocked leases q's oldest message visible at now, redriving exhausted
// ones on the way. With none visible it returns nil and the instant the next
// lease expires, which is after now (zero if no message is leased).
func (s *Service) leaseLocked(q *queue, now time.Time, visibility time.Duration) (*Message, time.Time) {
	for {
		var oldest *storedMessage
		var nextVisible time.Time
		for _, m := range q.messages {
			if m.visibleAt.After(now) {
				if nextVisible.IsZero() || m.visibleAt.Before(nextVisible) {
					nextVisible = m.visibleAt
				}
				continue
			}
			if oldest == nil || m.seq < oldest.seq {
				oldest = m
			}
		}
		if oldest == nil {
			return nil, nextVisible
		}
		if s.redriveLocked(q, oldest, now) {
			continue // exhausted message moved to the dead-letter queue
		}
		oldest.visibleAt = now.Add(visibility)
		oldest.receiveCount++
		s.seq++
		oldest.receipt = fmt.Sprintf("r-%08d", s.seq)
		return &Message{
			ID:           oldest.id,
			Body:         oldest.body,
			Receipt:      oldest.receipt,
			ReceiveCount: oldest.receiveCount,
		}, time.Time{}
	}
}

// Delete acknowledges a message using the receipt handle of its current
// lease. Deleting with a receipt that no longer identifies a live lease —
// because the lease expired and another receiver took the message over, or
// because the message was already deleted — fails with ErrStaleReceipt.
func (s *Service) Delete(queueName, receipt string) (time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, err := s.getQueue(queueName)
	if err != nil {
		return 0, err
	}
	s.ledger.Record(Backend, "delete", 1, 1, 0)
	for id, m := range q.messages {
		if m.receipt == receipt && receipt != "" {
			delete(q.messages, id)
			return DefaultRTT, nil
		}
	}
	return DefaultRTT, fmt.Errorf("%w (receipt %q)", ErrStaleReceipt, receipt)
}

// ChangeVisibility renews (or shortens) the current lease of a message.
func (s *Service) ChangeVisibility(queueName, receipt string, visibility time.Duration) (time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, err := s.getQueue(queueName)
	if err != nil {
		return 0, err
	}
	s.ledger.Record(Backend, "changeVisibility", 1, 1, 0)
	for _, m := range q.messages {
		if m.receipt == receipt && receipt != "" {
			visibleAt := s.clock.Now().Add(visibility)
			if visibleAt.Before(m.visibleAt) {
				// Released or shortened: a waiter's timer may be too late.
				q.wakeLocked()
			}
			m.visibleAt = visibleAt
			return DefaultRTT, nil
		}
	}
	return DefaultRTT, fmt.Errorf("%w (receipt %q)", ErrStaleReceipt, receipt)
}

// Len returns the number of messages in the queue (visible or leased).
func (s *Service) Len(queueName string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q, ok := s.queues[queueName]; ok {
		return len(q.messages)
	}
	return 0
}
