package core

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/cloud/ec2"
	"repro/internal/index"
)

// FuzzQueryMessage hands arbitrary bodies of the query queue to
// answerQuery, the query processor's steps 9-14, and never panics. A body
// that decodes re-encodes to a message that decodes the same, and its
// response carries its ID and either a result key or an error. One that
// does not decode gets the ID-less error response, so that it is consumed
// instead of redelivered forever. The corpus is one document whose labels
// each name one node, so no query a fuzzer writes can multiply rows. More
// seeds are in testdata.
func FuzzQueryMessage(f *testing.F) {
	f.Add(`{"id":"q-1","query":"//painting[/name{val}]","strategy":"2LUPI"}`)
	f.Add(`{"id":"q-2","query":"//painting[/name{val}]","strategy":"2LUPI","noIndex":true}`)
	f.Add(`{"id":"q-3","query":"//painting[/name{val}"}`)
	f.Add(`{"id":7}`)
	f.Add(`not json`)
	w, err := New(Config{Strategy: index.TwoLUPI})
	if err != nil {
		f.Fatal(err)
	}
	const uri = "one.xml"
	if _, err := w.files.Put(Bucket, DocKey(uri), []byte(`<painting id="p"><name>Olympia</name><year>1863</year></painting>`), nil); err != nil {
		f.Fatal(err)
	}
	if _, err := w.IndexCorpusOn(ec2.LaunchFleet(w.ledger, ec2.Large, 1), []string{uri}); err != nil {
		f.Fatal(err)
	}
	in := ec2.Launch(w.ledger, ec2.Large)
	f.Fuzz(func(t *testing.T, body string) {
		var msg queryMessage
		decodeErr := json.Unmarshal([]byte(body), &msg)
		resp, _ := w.answerQuery(in, body, nil, nil)
		if decodeErr != nil {
			if resp.ID != "" || resp.ResultKey != "" || resp.Error == "" {
				t.Fatalf("undecodable body %q: response %+v, want only an error", body, resp)
			}
			return
		}
		again, err := json.Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		var back queryMessage
		if err := json.Unmarshal(again, &back); err != nil || back != msg {
			t.Fatalf("body %q decodes to %+v, which re-encodes to %s and decodes to %+v (%v)", body, msg, again, back, err)
		}
		if resp.ID != msg.ID || (resp.ResultKey == "") == (resp.Error == "") {
			t.Fatalf("body %q: response %+v, want ID %q and a result key or an error", body, resp, msg.ID)
		}
	})
}

// FuzzResponseMessage sends arbitrary bodies to the response queue and
// reads each back with readResponse, the front end's step 16, which never
// panics. A body that decodes is returned as it decodes and left queued for
// its receiver to claim or step over, and it re-encodes to a message that
// decodes the same. One that does not decode is unroutable: readResponse
// reports it and deletes it. More seeds are in testdata.
func FuzzResponseMessage(f *testing.F) {
	f.Add(`{"id":"q-1","resultKey":"results/q-1","rows":3}`)
	f.Add(`{"id":"q-2","error":"pattern: unexpected end"}`)
	f.Add(`{"id":"q-3","rows":"three"}`)
	f.Add(`{`)
	f.Add(``)
	w, err := New(Config{Strategy: index.TwoLUPI})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body string) {
		if _, _, err := w.queues.Send(ResponseQueue, body); err != nil {
			t.Fatal(err)
		}
		m, _, err := w.queues.Receive(context.Background(), ResponseQueue, time.Minute, 0)
		if err != nil || m == nil {
			t.Fatalf("receive: %v, %v", m, err)
		}
		var want responseMessage
		decodeErr := json.Unmarshal([]byte(body), &want)
		resp, ok := w.readResponse(m)
		queued := w.queues.Len(ResponseQueue)
		if decodeErr != nil {
			if ok || queued != 0 {
				t.Fatalf("undecodable body %q: ok %v, %d messages queued, want it deleted", body, ok, queued)
			}
			return
		}
		if !ok || resp != want || queued != 1 {
			t.Fatalf("body %q: read %+v (ok %v, %d queued), want %+v left queued", body, resp, ok, queued, want)
		}
		if _, err := w.queues.Delete(ResponseQueue, m.Receipt); err != nil {
			t.Fatal(err)
		}
		again, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		var back responseMessage
		if err := json.Unmarshal(again, &back); err != nil || back != resp {
			t.Fatalf("body %q decodes to %+v, which re-encodes to %s and decodes to %+v (%v)", body, resp, again, back, err)
		}
	})
}
