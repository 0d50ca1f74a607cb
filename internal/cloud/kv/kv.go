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
// The items a Get, BatchGet or DumpTable returns are views: their Values
// and RangeKeys point into the store's own memory, and nothing is copied on
// the way out. A view stays valid, and keeps its bytes, for as long as the
// caller holds it, whatever is put, overwritten or deleted meanwhile. In
// return the caller must not write into a returned Value (appending to one
// is fine: it has no spare capacity, so the append copies), and code that
// keeps store bytes beyond the request that read them copies what it keeps,
// as the index's posting cache does, because a retained Value pins the
// whole chunk of store memory it lies in. MemStore checksums every item;
// DumpTable, which every differential test calls, and the store's own
// housekeeping panic when they meet an item that was written through.
//
// # One read API
//
// Get and BatchGet (and MultiStore's BatchGetMulti) take the caller's
// context first; there is no context-free twin. The context carries
// cancellation and the query's resilience.Budget. Two places act on it:
// MemStore, the bottom of every stack, calls CheckContext before it reads or
// meters anything, and Retry calls it before every attempt and cuts its
// backoff at the budget's deadline. Every other wrapper (Sharded, the chaos
// stores, a test's fake) passes the context it was given to the store below
// and neither inspects nor replaces it. Callers with nothing to cancel pass
// context.Background(); index.LookupOptions does that for a zero Ctx.
//
// # One implementation
//
// MemStore is the only store: both simulated services are a MemStore with
// their own limits, latency model and overheads. Its layout (arena.go) is
// physical and invisible through the Store interface: every size, latency
// and metering record it reports is the modeled service's, derived from
// Item.Size. Sharded, Retry, Delta and the chaos store wrap a Store and
// pass views through untouched.
package kv

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/resilience"
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

// Attr returns the values of the named attribute, or nil if absent.
func (it Item) Attr(name string) []Value {
	for _, a := range it.Attrs {
		if a.Name == name {
			return a.Values
		}
	}
	return nil
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

// PartialGetError reports a DynamoDB-style partially served BatchGet
// (UnprocessedKeys): the returned map holds every key not listed; the
// listed remainder was not read. Callers must re-fetch only
// UnprocessedKeys and merge.
type PartialGetError struct {
	UnprocessedKeys []string
}

func (e *PartialGetError) Error() string {
	return fmt.Sprintf("kv: batch get partially served (%d unprocessed keys)", len(e.UnprocessedKeys))
}

// CheckContext reports the first reason a read must stop: context
// cancellation, or an exhausted modeled-time budget (resilience.ErrDeadline).
// Nil when work may proceed.
func CheckContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if resilience.FromContext(ctx).Exhausted(0) {
		return resilience.ErrDeadline
	}
	return nil
}

// Limits describes a store's hard limits and capabilities.
type Limits struct {
	MaxItemBytes   int64 // maximum size of one item (64 KB for DynamoDB)
	MaxValueBytes  int64 // maximum size of one attribute value
	BatchPutItems  int   // maximum items per batch put (25 for DynamoDB)
	BatchGetKeys   int   // maximum keys per batch get (100 for DynamoDB)
	SupportsBinary bool  // whether values may be arbitrary bytes
}

// Store is the key-value service interface used by the index layer.
// Every data operation returns the modeled latency the caller must charge
// to its virtual machine timeline. Items passed to a put are copied in;
// items returned by a get are read-only views of the store's memory (see
// the package documentation), not private copies.
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
	BatchPut(table string, items []Item) (time.Duration, error)
	// Get returns all items with the given hash key, in ascending range
	// key order, as read-only views. ctx carries the caller's cancellation
	// and resilience.Budget and is never nil (see "One read API").
	Get(ctx context.Context, table, hashKey string) ([]Item, time.Duration, error)
	// BatchGet performs up to Limits().BatchGetKeys Get operations in one
	// request.
	BatchGet(ctx context.Context, table string, hashKeys []string) (map[string][]Item, time.Duration, error)
	// DeleteItem removes one item by its full primary key. Deleting a
	// missing item is not an error (DynamoDB semantics).
	DeleteItem(table, hashKey, rangeKey string) (time.Duration, error)

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
