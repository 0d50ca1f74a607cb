package chaos

import (
	"time"

	"repro/internal/cloud/sqs"
)

// dupDeliver draws the duplicate-delivery decision for one receive.
func (inj *Injector) dupDeliver() bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.hit(inj.rates.DupDeliver) {
		inj.note(MetricDupDeliveries)
		return true
	}
	return false
}

// expireLease draws the forced-expiry decision for one receive.
func (inj *Injector) expireLease() bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.hit(inj.rates.ExpireLease) {
		inj.note(MetricExpiredLeases)
		return true
	}
	return false
}

// Queues wraps an sqs.Service and injects at-least-once delivery anomalies
// on Receive/ReceiveWait:
//
//   - duplicate delivery: the lease of a just-delivered message is released
//     immediately (visibility zero), so the message is delivered again to
//     the next receiver while the first still processes it — the SQS
//     at-least-once contract in its most hostile form;
//   - forced expiry: the lease is silently cut to a fraction of the
//     requested visibility, so it expires mid-task unless renewed
//     unusually fast, exercising the stale-receipt paths.
//
// The receipt handed to the chaotic receiver stays the message's current
// lease until someone else receives the message, so its Delete either
// acknowledges normally or fails with sqs.ErrStaleReceipt — exactly the
// outcomes real SQS can produce. With all rates zero the wrapper is an
// exact pass-through.
type Queues struct {
	*sqs.Service
	inj *Injector
}

// WrapQueues wraps q with delivery-anomaly injection driven by inj.
func WrapQueues(q *sqs.Service, inj *Injector) *Queues {
	return &Queues{Service: q, inj: inj}
}

// Unwrap returns the wrapped queue service.
func (c *Queues) Unwrap() *sqs.Service { return c.Service }

// sabotage applies the drawn anomalies to a freshly leased message. The
// ChangeVisibility calls are real API calls: they are metered and can race
// with other receivers, like a flaky network duplicating requests would.
func (c *Queues) sabotage(queueName string, msg *sqs.Message, visibility time.Duration, d time.Duration) time.Duration {
	if msg == nil {
		return d
	}
	if c.inj.dupDeliver() {
		if dd, err := c.Service.ChangeVisibility(queueName, msg.Receipt, 0); err == nil {
			d += dd
		}
		return d
	}
	if c.inj.expireLease() {
		short := visibility / 8
		if short <= 0 {
			short = time.Millisecond
		}
		if dd, err := c.Service.ChangeVisibility(queueName, msg.Receipt, short); err == nil {
			d += dd
		}
	}
	return d
}

// Receive implements the sqs receive with injection.
func (c *Queues) Receive(queueName string, visibility time.Duration) (*sqs.Message, time.Duration, error) {
	msg, d, err := c.Service.Receive(queueName, visibility)
	if err != nil {
		return msg, d, err
	}
	return msg, c.sabotage(queueName, msg, visibility, d), nil
}

// ReceiveWait implements the sqs long poll with injection.
func (c *Queues) ReceiveWait(queueName string, visibility, maxWait time.Duration) (*sqs.Message, time.Duration, error) {
	msg, d, err := c.Service.ReceiveWait(queueName, visibility, maxWait)
	if err != nil {
		return msg, d, err
	}
	return msg, c.sabotage(queueName, msg, visibility, d), nil
}
