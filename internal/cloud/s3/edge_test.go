package s3

import (
	"errors"
	"testing"
)

func TestGetMissing(t *testing.T) {
	s := newSvc(t)
	if _, _, err := s.Get("wh", "nope"); !errors.Is(err, ErrNoSuchKey) {
		t.Errorf("Get missing = %v", err)
	}
	if _, _, err := s.Get("nope", "k"); !errors.Is(err, ErrNoSuchBucket) {
		t.Errorf("Get missing bucket = %v", err)
	}
}

func TestListEmptyBucketAndMissingBucket(t *testing.T) {
	s := newSvc(t)
	keys, _, err := s.List("wh", "")
	if err != nil || len(keys) != 0 {
		t.Errorf("List empty = %v, %v", keys, err)
	}
	if _, _, err := s.List("nope", ""); !errors.Is(err, ErrNoSuchBucket) {
		t.Errorf("List missing bucket = %v", err)
	}
}

func TestOverwriteReplacesMetadata(t *testing.T) {
	s := newSvc(t)
	s.Put("wh", "k", []byte("v1"), map[string]string{"a": "1"})
	s.Put("wh", "k", []byte("v2"), nil)
	o, _, _ := s.Get("wh", "k")
	if o.Meta != nil {
		t.Errorf("metadata survived overwrite: %v", o.Meta)
	}
	if o.Version != 2 {
		t.Errorf("version = %d", o.Version)
	}
}

func TestZeroByteObject(t *testing.T) {
	s := newSvc(t)
	if _, err := s.Put("wh", "empty", nil, nil); err != nil {
		t.Fatal(err)
	}
	o, d, err := s.Get("wh", "empty")
	if err != nil || len(o.Data) != 0 {
		t.Errorf("Get empty = %v, %v", o, err)
	}
	if d < DefaultPerf().RTT {
		t.Errorf("latency below RTT: %v", d)
	}
	if s.BucketBytes("wh") != 0 {
		t.Errorf("bytes = %d", s.BucketBytes("wh"))
	}
}
