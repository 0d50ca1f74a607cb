// Package sqs simulates Amazon Simple Queue Service, which the warehouse
// uses for reliable asynchronous communication between its modules
// (Section 6): the front end feeds the loader request queue and the query
// request queue; the query processors feed the query response queue.
//
// Semantics follow SQS:
//
//   - Send enqueues a message;
//   - Receive leases the oldest visible message for a visibility timeout;
//     until the lease expires the message is invisible to other receivers;
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
// Visibility is driven by real time, because the warehouse pipeline runs on
// real goroutines; each API call additionally returns a modeled latency for
// the virtual-time accounting, and is metered for billing (QS$ per request,
// Table 3).
package sqs

import (
	"errors"
	"fmt"
	"sync"
	"time"

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
	notify   chan struct{}
	// redrive, when set, moves a message to the dead-letter queue once it
	// has been received maxReceive times without being deleted.
	redrive    string
	maxReceive int
}

// Service is an in-memory SQS endpoint. It is safe for concurrent use.
type Service struct {
	rtt    time.Duration
	ledger *meter.Ledger

	mu     sync.Mutex
	queues map[string]*queue
	seq    int64
}

// New returns a simulated SQS endpoint recording into ledger.
func New(ledger *meter.Ledger) *Service {
	if ledger == nil {
		panic("sqs: ledger is required")
	}
	return &Service{rtt: DefaultRTT, ledger: ledger, queues: make(map[string]*queue)}
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
		notify:   make(chan struct{}, 1),
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

// redriveLocked moves m to q's dead-letter queue if its receive count has
// exhausted the redrive policy. It reports whether the message moved.
func (s *Service) redriveLocked(q *queue, m *storedMessage) bool {
	if q.redrive == "" || m.receiveCount < q.maxReceive {
		return false
	}
	dlq, err := s.getQueue(q.redrive)
	if err != nil {
		return false
	}
	delete(q.messages, m.id)
	s.seq++
	moved := &storedMessage{id: m.id, body: m.body, seq: s.seq, visibleAt: time.Now()}
	dlq.messages[m.id] = moved
	select {
	case dlq.notify <- struct{}{}:
	default:
	}
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
	q.messages[id] = &storedMessage{id: id, body: body, seq: s.seq, visibleAt: time.Now()}
	s.ledger.Record(Backend, "send", 1, 1, int64(len(body)))
	notify := q.notify
	s.mu.Unlock()

	select {
	case notify <- struct{}{}:
	default:
	}
	return id, s.rtt, nil
}

// Receive leases the oldest visible message for the given visibility
// timeout. It returns (nil, latency, nil) when no message is visible; the
// empty poll is still metered, as AWS bills it.
func (s *Service) Receive(queueName string, visibility time.Duration) (*Message, time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, err := s.getQueue(queueName)
	if err != nil {
		return nil, 0, err
	}
	now := time.Now()
	s.ledger.Record(Backend, "receive", 1, 1, 0)
	for {
		var oldest *storedMessage
		for _, m := range q.messages {
			if m.visibleAt.After(now) {
				continue
			}
			if oldest == nil || m.seq < oldest.seq {
				oldest = m
			}
		}
		if oldest == nil {
			return nil, s.rtt, nil
		}
		if s.redriveLocked(q, oldest) {
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
		}, s.rtt, nil
	}
}

// ReceiveWait is a long poll: it behaves like Receive but waits up to
// maxWait for a message to become visible. Like SQS long polling, the whole
// wait is one billed request.
func (s *Service) ReceiveWait(queueName string, visibility, maxWait time.Duration) (*Message, time.Duration, error) {
	deadline := time.Now().Add(maxWait)
	first := true
	for {
		s.mu.Lock()
		q, err := s.getQueue(queueName)
		if err != nil {
			s.mu.Unlock()
			return nil, 0, err
		}
		notify := q.notify
		now := time.Now()
		var oldest *storedMessage
		var nextVisible time.Time
		for {
			oldest = nil
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
			if oldest == nil || !s.redriveLocked(q, oldest) {
				break
			}
		}
		if first {
			s.ledger.Record(Backend, "receive", 1, 1, 0)
			first = false
		}
		if oldest != nil {
			oldest.visibleAt = now.Add(visibility)
			oldest.receiveCount++
			s.seq++
			oldest.receipt = fmt.Sprintf("r-%08d", s.seq)
			msg := &Message{
				ID:           oldest.id,
				Body:         oldest.body,
				Receipt:      oldest.receipt,
				ReceiveCount: oldest.receiveCount,
			}
			s.mu.Unlock()
			return msg, s.rtt, nil
		}
		s.mu.Unlock()

		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, s.rtt, nil
		}
		// Wake up on a new send, when an existing lease may expire, or at
		// the poll deadline, whichever comes first.
		wait := remaining
		if !nextVisible.IsZero() {
			if until := time.Until(nextVisible); until < wait {
				wait = until
			}
		}
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		timer := time.NewTimer(wait)
		select {
		case <-notify:
		case <-timer.C:
		}
		timer.Stop()
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
			return s.rtt, nil
		}
	}
	return s.rtt, fmt.Errorf("%w (receipt %q)", ErrStaleReceipt, receipt)
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
			m.visibleAt = time.Now().Add(visibility)
			if visibility <= 0 {
				// Releasing the lease: wake a waiting receiver.
				select {
				case q.notify <- struct{}{}:
				default:
				}
			}
			return s.rtt, nil
		}
	}
	return s.rtt, fmt.Errorf("%w (receipt %q)", ErrStaleReceipt, receipt)
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
