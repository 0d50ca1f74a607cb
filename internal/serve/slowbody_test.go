package serve

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// writableFake is fakeBackend accepting document writes.
type writableFake struct{ fakeBackend }

func (*writableFake) Writable() bool              { return true }
func (*writableFake) Update(string, []byte) error { return nil }
func (*writableFake) Remove(string) error         { return nil }

// A client that sends the headers of a PUT /document and then trickles its
// body, a byte every 20 ms, is answered 400 and has its connection closed
// once the body deadline passes, while another client's query is answered
// in the meantime.
func TestTricklingBodyIsCutOff(t *testing.T) {
	s, err := New(Config{Backend: &writableFake{}})
	if err != nil {
		t.Fatal(err)
	}
	const bound = 300 * time.Millisecond
	s.bodyTimeout = bound
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := fmt.Fprintf(conn, "PUT /document?uri=slow.xml HTTP/1.1\r\nHost: %s\r\nContent-Length: 100000\r\n\r\n<a>", addr); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	trickled := make(chan struct{})
	go func() {
		defer close(trickled)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if _, err := conn.Write([]byte("x")); err != nil {
					return
				}
			}
		}
	}()
	defer func() {
		close(stop)
		<-trickled
	}()

	// Another client is served while the trickle goes on.
	resp := postQuery(t, "http://"+addr, validQuery(t))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("a query beside the trickling client: status %d", resp.StatusCode)
	}

	// The trickling client gets its answer, and then the end of the
	// connection, within the bound and a margin; the client's own deadline
	// only keeps the test from hanging.
	if err := conn.SetReadDeadline(time.Now().Add(bound + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	reply, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no reply to the trickled PUT: %v", err)
	}
	body, _ := io.ReadAll(reply.Body)
	reply.Body.Close()
	if reply.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "timeout") {
		t.Fatalf("trickled PUT answered %d: %s", reply.StatusCode, body)
	}
	if n, err := conn.Read(make([]byte, 1)); err == nil || isTimeout(err) {
		t.Fatalf("the connection is still open after the reply (read %d bytes, %v)", n, err)
	}
	if took := time.Since(start); took < bound || took > bound+2*time.Second {
		t.Fatalf("the trickling client was cut off after %v, want just after %v", took, bound)
	}
}

func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}
