// Package s3 simulates Amazon Simple Storage Service, the file store
// holding the warehouse's XML documents and query results (Section 6).
//
// S3 stores raw objects in named buckets. Each object has a unique name
// within its bucket, system metadata (size, version) and optional
// user-defined metadata. Following the paper, the warehouse keeps the whole
// dataset in a single bucket, since bucket count does not affect S3
// performance.
//
// The latency model charges a fixed round trip plus payload transfer at a
// configurable bandwidth; every request is metered for billing (STput$,
// STget$ of Table 3).
//
// Put stores a private copy of what it is given. Get returns a read-only
// view: the Object's Data and Meta are the stored ones, not copies, and the
// caller must not write to them. An overwrite or delete replaces the stored
// slice and never edits it, so a view taken earlier keeps the bytes it was
// taken with.
package s3

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/meter"
)

// Backend is the service name used for metering and billing.
const Backend = "s3"

// Errors returned by the service.
var (
	ErrNoSuchBucket = errors.New("s3: no such bucket")
	ErrBucketExists = errors.New("s3: bucket already exists")
	ErrNoSuchKey    = errors.New("s3: no such key")
	ErrEmptyKey     = errors.New("s3: empty object key")
	// ErrTransient is the retriable "503 Slow Down" class of failure; the
	// chaos layer injects it in front of Get/Put/Delete. Callers that do
	// not retry rely on queue redelivery to absorb it.
	ErrTransient = errors.New("s3: service unavailable (transient, slow down)")
)

// Perf parameterizes the latency model.
type Perf struct {
	RTT       time.Duration // per-request round trip
	Bandwidth float64       // payload bytes per second
}

// DefaultPerf models intra-region S3 access from EC2.
func DefaultPerf() Perf {
	return Perf{RTT: 20 * time.Millisecond, Bandwidth: 40 << 20}
}

// Object is a stored blob with its metadata.
type Object struct {
	Key      string
	Data     []byte
	Meta     map[string]string // user-defined metadata
	Version  int64             // system-defined version, starts at 1
	Modified int64             // logical modification counter of the service
}

type bucket struct {
	objects map[string]Object
	bytes   int64
}

// Service is an in-memory S3 endpoint. It is safe for concurrent use.
type Service struct {
	perf   Perf
	ledger *meter.Ledger

	mu      sync.RWMutex
	buckets map[string]*bucket
	modSeq  int64
}

// New returns a simulated S3 endpoint recording into ledger.
func New(ledger *meter.Ledger) *Service {
	return NewWithPerf(ledger, DefaultPerf())
}

// NewWithPerf returns a simulated S3 endpoint with a custom latency model.
func NewWithPerf(ledger *meter.Ledger, perf Perf) *Service {
	if ledger == nil {
		panic("s3: ledger is required")
	}
	return &Service{perf: perf, ledger: ledger, buckets: make(map[string]*bucket)}
}

func (s *Service) transfer(bytes int64) time.Duration {
	d := s.perf.RTT
	if s.perf.Bandwidth > 0 {
		d += time.Duration(float64(bytes) / s.perf.Bandwidth * float64(time.Second))
	}
	return d
}

// CreateBucket creates an empty bucket.
func (s *Service) CreateBucket(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.buckets[name]; ok {
		return fmt.Errorf("%w: %q", ErrBucketExists, name)
	}
	s.buckets[name] = &bucket{objects: make(map[string]Object)}
	return nil
}

// Put stores (or overwrites) an object and returns the modeled latency.
func (s *Service) Put(bkt, key string, data []byte, userMeta map[string]string) (time.Duration, error) {
	if key == "" {
		return 0, ErrEmptyKey
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bkt]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchBucket, bkt)
	}
	s.modSeq++
	version := int64(1)
	if old, ok := b.objects[key]; ok {
		b.bytes -= int64(len(old.Data))
		version = old.Version + 1
	}
	var meta map[string]string
	if len(userMeta) > 0 {
		meta = make(map[string]string, len(userMeta))
		for k, v := range userMeta {
			meta[k] = v
		}
	}
	b.objects[key] = Object{
		Key:      key,
		Data:     append([]byte(nil), data...),
		Meta:     meta,
		Version:  version,
		Modified: s.modSeq,
	}
	b.bytes += int64(len(data))
	s.ledger.Record(Backend, "put", 1, 1, int64(len(data)))
	return s.transfer(int64(len(data))), nil
}

// Get retrieves an object, as a read-only view of the stored Data and Meta,
// and returns the modeled latency.
func (s *Service) Get(bkt, key string) (Object, time.Duration, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.buckets[bkt]
	if !ok {
		return Object{}, 0, fmt.Errorf("%w: %q", ErrNoSuchBucket, bkt)
	}
	o, ok := b.objects[key]
	if !ok {
		return Object{}, 0, fmt.Errorf("%w: %s/%s", ErrNoSuchKey, bkt, key)
	}
	s.ledger.Record(Backend, "get", 1, 1, int64(len(o.Data)))
	return o, s.transfer(int64(len(o.Data))), nil
}

// Delete removes an object. Deleting a missing key is not an error,
// matching S3 semantics.
func (s *Service) Delete(bkt, key string) (time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bkt]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchBucket, bkt)
	}
	if old, ok := b.objects[key]; ok {
		b.bytes -= int64(len(old.Data))
		delete(b.objects, key)
	}
	s.ledger.Record(Backend, "delete", 1, 1, 0)
	return s.perf.RTT, nil
}

// List returns the keys in a bucket with the given prefix, sorted.
func (s *Service) List(bkt, prefix string) ([]string, time.Duration, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.buckets[bkt]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q", ErrNoSuchBucket, bkt)
	}
	var keys []string
	for k := range b.objects {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	s.ledger.Record(Backend, "list", 1, 1, 0)
	return keys, s.perf.RTT, nil
}

// BucketBytes returns the payload bytes stored in a bucket.
func (s *Service) BucketBytes(bkt string) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if b, ok := s.buckets[bkt]; ok {
		return b.bytes
	}
	return 0
}

// TotalBytes returns the payload bytes stored across all buckets; this is
// the s(D) input of the monthly storage cost (Section 7.1).
func (s *Service) TotalBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, b := range s.buckets {
		n += b.bytes
	}
	return n
}
