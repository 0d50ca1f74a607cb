package chaos

import (
	"fmt"
	"time"

	"repro/internal/cloud/s3"
)

// s3Fault draws the transient-failure decision for one file operation.
func (inj *Injector) s3Fault() error {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.hit(inj.rates.S3Transient) {
		inj.note(MetricS3Faults)
		return fmt.Errorf("%w (chaos)", s3.ErrTransient)
	}
	return nil
}

// Files wraps an s3.Service and injects transient failures (the "503 Slow
// Down" class, s3.ErrTransient) in front of Get, Put and Delete. Metadata
// operations pass through untouched, as do all operations when every rate
// is zero.
type Files struct {
	*s3.Service
	inj *Injector
}

// WrapFiles wraps f with fault injection driven by inj.
func WrapFiles(f *s3.Service, inj *Injector) *Files {
	return &Files{Service: f, inj: inj}
}

// Unwrap returns the wrapped file service.
func (c *Files) Unwrap() *s3.Service { return c.Service }

// Get implements the s3 get with injection.
func (c *Files) Get(bkt, key string) (s3.Object, time.Duration, error) {
	if err := c.inj.s3Fault(); err != nil {
		return s3.Object{}, 0, err
	}
	return c.Service.Get(bkt, key)
}

// Put implements the s3 put with injection.
func (c *Files) Put(bkt, key string, data []byte, userMeta map[string]string) (time.Duration, error) {
	if err := c.inj.s3Fault(); err != nil {
		return 0, err
	}
	return c.Service.Put(bkt, key, data, userMeta)
}

// Delete implements the s3 delete with injection.
func (c *Files) Delete(bkt, key string) (time.Duration, error) {
	if err := c.inj.s3Fault(); err != nil {
		return 0, err
	}
	return c.Service.Delete(bkt, key)
}
