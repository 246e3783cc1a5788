package queue

import (
	"testing"

	"commguard/internal/obs"
)

// Queue trace events: working-set publish/return plus the §5.1 timeout
// give-ups, emitted into the producer and consumer rings respectively.
func TestQueueTraceEvents(t *testing.T) {
	tracer := obs.NewTracer(2, 64)
	q := MustNew(3, Config{WorkingSets: 2, WorkingSetUnits: 4, ProtectPointers: true, Timeout: 0})
	q.SetTrace(tracer.Ring(0), tracer.Ring(1))
	q.SetSequential()

	// Empty queue: a sequential pop gives up immediately.
	if _, ok := q.Pop(); ok {
		t.Fatal("pop on empty sequential queue should fail")
	}
	// Fill both working sets (2x4 units), then one more push must force an
	// overwrite (push timeout).
	for i := 0; i < 9; i++ {
		q.Push(DataUnit(uint32(i)))
	}
	// Drain one full working set so the consumer returns it.
	for i := 0; i < 4; i++ {
		q.Pop()
	}

	counts := map[obs.Kind]int{}
	var queueIDs []int32
	tr := tracer.Collect([]string{"prod", "cons"}, nil)
	for _, e := range tr.Events {
		counts[e.Kind]++
		queueIDs = append(queueIDs, e.Queue)
	}
	if counts[obs.KindQueuePopTimeout] < 1 {
		t.Error("no queue-pop-timeout event recorded")
	}
	if counts[obs.KindQueuePushTimeout] < 1 {
		t.Error("no queue-push-timeout event recorded")
	}
	if counts[obs.KindQueuePublish] != 2 {
		t.Errorf("queue-publish events = %d, want 2", counts[obs.KindQueuePublish])
	}
	if counts[obs.KindQueueReturn] < 1 {
		t.Error("no queue-return event recorded")
	}
	for i, id := range queueIDs {
		if id != 3 {
			t.Fatalf("event %d tagged queue %d, want 3", i, id)
		}
	}

	st := q.Stats()
	if st.PopTimeouts != uint64(counts[obs.KindQueuePopTimeout]) {
		t.Errorf("stats PopTimeouts %d != traced %d", st.PopTimeouts, counts[obs.KindQueuePopTimeout])
	}
	if st.PushTimeouts != uint64(counts[obs.KindQueuePushTimeout]) {
		t.Errorf("stats PushTimeouts %d != traced %d", st.PushTimeouts, counts[obs.KindQueuePushTimeout])
	}
}
