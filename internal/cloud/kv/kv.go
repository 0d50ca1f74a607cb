// Package kv defines the common interface of the simulated cloud key-value
// stores (DynamoDB and SimpleDB) that host the warehouse index.
//
// The data model follows Figure 6 of the paper: a database holds tables;
// a table holds items; an item holds one or more attributes; an attribute
// has a name and one or several values. Items are addressed by a composite
// primary key (hash key + range key). A Get on a hash key returns every
// item sharing that hash key, regardless of range key.
//
// Index code is written against this interface so that the same strategies
// run on DynamoDB (this paper) and SimpleDB (the predecessor system [8]
// used in the Section 8.4 comparison).
//
// # Reads return read-only views
//
// A read hands out views: the range keys, names and values its Records
// cursor yields, and the items Get, BatchGet and DumpTable collect from it,
// point into the store's own memory, and nothing is copied on the way out.
// A view stays valid, and keeps its bytes, for as long as the caller holds
// it, whatever is put, overwritten or deleted meanwhile. In return the
// caller must not write into a returned Value (appending to one is fine: it
// has no spare capacity, so the append copies), and code that keeps store
// bytes beyond the request that read them copies what it keeps, as the
// index's posting cache does, because a retained Value pins the whole chunk
// of store memory it lies in. MemStore checksums every item; DumpTable,
// which every differential test calls, and the store's own housekeeping
// panic when they meet an item that was written through.
//
// # One read API
//
// Store has one read, Read: it hands a Visitor each requested hash key's
// Records, a cursor over the key's records with their tally, and builds no
// item structs. Get and BatchGet are package-level collectors over it for the
// callers that want items; they are metered, timed, retried and
// fault-injected exactly as the one read they make. A read takes the
// caller's context first; there is no context-free twin. The context
// carries cancellation. Two places act on it: MemStore, the bottom of every
// stack, checks it before it reads or meters anything, and Retry checks it
// before every attempt and every backoff. Every other wrapper (the chaos
// stores, a test's fake) passes the context it was given to the store
// below and neither inspects nor replaces it. Callers with nothing to
// cancel pass context.Background(); index.LookupOptions does that for a
// zero Ctx.
//
// A read that fails has visited nothing, with one exception: one that fails
// with a *PartialGetError has visited exactly the keys it does not list.
// Callers discard what they were handed on any other error.
//
// # Writes are batched
//
// Store has two writes, both one request per call: BatchPut stores up to
// Limits().BatchPutItems items and BatchDelete removes up to as many items
// by primary key, the two halves of DynamoDB's BatchWriteItem (Put is a
// one-item BatchPut). Either call validates its whole batch before it
// touches anything, so a rejected batch writes and meters nothing. A delete
// is metered like a put of the key: one write unit per key, the key bytes
// as payload, so batching moves a bill's request count and modeled round
// trips but not its write units. Under faults a batch may be applied in
// part (PartialPutError, PartialDeleteError); Retry resubmits the
// remainder.
//
// # One implementation
//
// MemStore is the only store: both simulated services are a MemStore with
// their own limits, latency model and overheads. Its layout (arena.go) is
// physical and invisible through the Store interface: every size, latency
// and metering record it reports is the modeled service's, derived from
// Item.Size. Retry and the chaos store wrap a Store and pass the visitor
// through untouched.
package kv

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Value is a single attribute value. DynamoDB accepts arbitrary binary
// values (the feature the paper exploits to store compressed ID sets);
// SimpleDB only accepts UTF-8 text up to 1 KB.
type Value []byte

// Attr is a named attribute carrying one or more values.
type Attr struct {
	Name   string
	Values []Value
}

// Size returns the billing-relevant size of the attribute: name plus all
// value bytes.
func (a Attr) Size() int64 {
	n := int64(len(a.Name))
	for _, v := range a.Values {
		n += int64(len(v))
	}
	return n
}

// Key is the full primary key of one item.
type Key struct {
	HashKey  string
	RangeKey string
}

// Size returns the billing-relevant size of the key: its two parts' bytes,
// what a delete by this key is metered as.
func (k Key) Size() int64 { return int64(len(k.HashKey) + len(k.RangeKey)) }

// Item is one table row.
type Item struct {
	HashKey  string
	RangeKey string
	Attrs    []Attr
}

// Size returns the billing-relevant size of the item: key bytes plus
// attribute bytes.
func (it Item) Size() int64 {
	n := int64(len(it.HashKey) + len(it.RangeKey))
	for _, a := range it.Attrs {
		n += a.Size()
	}
	return n
}

// Errors shared by store implementations.
var (
	ErrNoSuchTable   = errors.New("kv: no such table")
	ErrTableExists   = errors.New("kv: table already exists")
	ErrItemTooLarge  = errors.New("kv: item exceeds the maximum item size")
	ErrValueTooLarge = errors.New("kv: attribute value exceeds the maximum value size")
	ErrBatchTooLarge = errors.New("kv: batch exceeds the maximum batch size")
	ErrNotText       = errors.New("kv: store does not accept binary attribute values")
	ErrEmptyKey      = errors.New("kv: empty hash key")
)

// Transient errors. Real DynamoDB surfaces two retriable failure classes:
// provisioned-throughput throttling and 5xx internal errors. Clients are
// expected to back off and retry both (the Retry wrapper does).
var (
	// ErrThrottled is the "provisioned throughput exceeded" failure the
	// store returns under load.
	ErrThrottled = errors.New("kv: provisioned throughput exceeded")
	// ErrInternal is a transient internal service error (HTTP 5xx).
	ErrInternal = errors.New("kv: internal service error (transient)")
)

// IsTransient reports whether the error is a retriable failure class
// (throttling or an internal service error). Partial batch outcomes are not
// transient errors: they carry results and are handled structurally.
func IsTransient(err error) bool {
	return errors.Is(err, ErrThrottled) || errors.Is(err, ErrInternal)
}

// PartialPutError reports a DynamoDB-style partially applied BatchPut
// (BatchWriteItem's UnprocessedItems): every item not listed landed; the
// listed remainder did not. Callers must resubmit only Unprocessed.
type PartialPutError struct {
	Unprocessed []Item
}

func (e *PartialPutError) Error() string {
	return fmt.Sprintf("kv: batch put partially applied (%d unprocessed items)", len(e.Unprocessed))
}

// PartialDeleteError reports a DynamoDB-style partially applied
// BatchDelete (BatchWriteItem's UnprocessedItems for delete requests):
// every key not listed was deleted; the listed remainder was not. Callers
// must resubmit only Unprocessed.
type PartialDeleteError struct {
	Unprocessed []Key
}

func (e *PartialDeleteError) Error() string {
	return fmt.Sprintf("kv: batch delete partially applied (%d unprocessed keys)", len(e.Unprocessed))
}

// PartialGetError reports a DynamoDB-style partially served read
// (BatchGetItem's UnprocessedKeys): every key not listed was visited; the
// listed remainder was not read. Callers must re-fetch only
// UnprocessedKeys.
type PartialGetError struct {
	UnprocessedKeys []string
}

func (e *PartialGetError) Error() string {
	return fmt.Sprintf("kv: batch get partially served (%d unprocessed keys)", len(e.UnprocessedKeys))
}

// Limits describes a store's hard limits and capabilities.
type Limits struct {
	MaxItemBytes   int64 // maximum size of one item (64 KB for DynamoDB)
	MaxValueBytes  int64 // maximum size of one attribute value
	BatchPutItems  int   // maximum items per batch put or delete (25 for DynamoDB)
	BatchGetKeys   int   // maximum keys per batch get (100 for DynamoDB)
	SupportsBinary bool  // whether values may be arbitrary bytes
}

// Store is the key-value service interface used by the index layer.
// Every data operation returns the modeled latency the caller must charge
// to its virtual machine timeline. Items passed to a put are copied in;
// what a read hands out are read-only views of the store's memory (see the
// package documentation), not private copies.
type Store interface {
	// Backend names the implementation ("dynamodb" or "simpledb"); it is
	// also the service name under which requests are metered and billed.
	Backend() string

	Limits() Limits

	CreateTable(name string) error
	DeleteTable(name string) error
	Tables() []string

	// Put inserts or fully replaces one item.
	Put(table string, item Item) (time.Duration, error)
	// BatchPut inserts up to Limits().BatchPutItems items in one request.
	// A store neither keeps the caller's slice nor writes into it, whatever
	// the outcome: the items are copied in, and a PartialPutError's
	// Unprocessed is a slice of its own. The index's bulk loader ships
	// sub-slices of its buffer and reuses the slots once the call returns.
	BatchPut(table string, items []Item) (time.Duration, error)
	// Read fetches every item of up to Limits().BatchGetKeys hash keys in
	// one request and calls visit once per requested key with a cursor over
	// its records, in ascending range key order. ctx carries the caller's
	// cancellation and is never nil (see "One read API").
	Read(ctx context.Context, table string, hashKeys []string, visit Visitor) (time.Duration, error)
	// BatchDelete removes the items of up to Limits().BatchPutItems
	// primary keys in one request. Deleting a missing item is not an error
	// (DynamoDB semantics), and a key listed twice is deleted once but
	// metered twice. Like BatchPut it neither keeps nor writes into the
	// caller's slice.
	BatchDelete(table string, keys []Key) (time.Duration, error)

	// TableBytes returns the user-data bytes stored in a table, and
	// OverheadBytes the store's own auxiliary structure size for it
	// (the ovh(D,I) term of Section 7.1).
	TableBytes(table string) int64
	OverheadBytes(table string) int64
	// TotalBytes returns user bytes plus overhead across all tables.
	TotalBytes() int64
	// ItemCount returns the number of items in a table.
	ItemCount(table string) int64

	// RegisterClient and UnregisterClient bracket a period during which a
	// worker thread issues sustained requests; the store divides its
	// provisioned capacity among registered clients (the saturation
	// effect of Figures 7 and 10).
	RegisterClient()
	UnregisterClient()
}

// Dumper is the verification-side interface of stores that can enumerate a
// table deterministically (MemStore.DumpTable); differential tests reach it
// through AsDumper.
type Dumper interface {
	DumpTable(table string) []Item
}

// Unwrapper is implemented by store wrappers (Retry, the chaos store) so
// capability probes can walk the stack.
type Unwrapper interface {
	Unwrap() Store
}

// AsDumper unwraps the store stack until it finds a Dumper, or returns nil.
func AsDumper(s Store) Dumper {
	for s != nil {
		if d, ok := s.(Dumper); ok {
			return d
		}
		u, ok := s.(Unwrapper)
		if !ok {
			return nil
		}
		s = u.Unwrap()
	}
	return nil
}
