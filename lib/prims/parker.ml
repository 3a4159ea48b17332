(* Spin-then-block wait/wake for one waiting thread at a time.

   The waiter spins on its ready predicate first.  Only when the spin
   budget runs out does it take the bell's mutex, raise [waiting],
   re-check the predicate, and block on the condition.  The waker
   publishes its data *before* loading [waiting], and takes the mutex
   and signals only when the flag is up — a waker that finds the
   waiter busy pays one atomic load and nothing else.

   Lost-wakeup freedom (the [Shm.Doorbell] argument, in-process):
   either the waiter's re-check sees the data, or the waker's load
   sees the flag.  A waker that sees the flag must take the mutex the
   waiter holds from raising the flag until [Condition.wait] releases
   it, so its signal cannot fall into the gap between the re-check
   and the wait.  The protocol is modelled exhaustively in
   test_schedcheck.ml. *)

type t = { waiting : bool Atomic.t; m : Mutex.t; bell : Condition.t }

let spin = 128

let create () =
  { waiting = Atomic.make false; m = Mutex.create (); bell = Condition.create () }

let local_key = Domain.DLS.new_key create
let local () = Domain.DLS.get local_key

let park t ~ready =
  let rec spin_on n =
    ready ()
    || n > 0
       && begin
            Domain.cpu_relax ();
            spin_on (n - 1)
          end
  in
  if not (spin_on spin) then begin
    Mutex.lock t.m;
    Atomic.set t.waiting true;
    if not (ready ()) then Condition.wait t.bell t.m;
    Atomic.set t.waiting false;
    Mutex.unlock t.m
  end

let wake t =
  if Atomic.get t.waiting then begin
    Mutex.lock t.m;
    Condition.signal t.bell;
    Mutex.unlock t.m
  end
