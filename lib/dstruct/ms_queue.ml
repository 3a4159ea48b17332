open Smr

module Make (T : Tracker.S) = struct
  type node = {
    hdr : Hdr.t;
    pool_index : int;
    mutable value : int;
    next : node option Atomic.t;
  }

  module Pool = Mpool.Make (struct
    type t = node

    let create ~index =
      {
        hdr = Hdr.create ();
        pool_index = index;
        value = 0;
        next = Atomic.make None;
      }

    let index n = n.pool_index
    let on_alloc n = Hdr.set_live n.hdr
    let on_free _ = ()
  end)

  type t = {
    cfg : Config.t;
    tracker : T.t;
    pool : Pool.t;
    head : node Atomic.t; (* current dummy *)
    tail : node Atomic.t;
  }

  let proj_opt = function Some n -> n.hdr | None -> Hdr.nil
  let proj (n : node) = n.hdr

  let alloc t ~tid value =
    let n = Pool.alloc t.pool in
    n.value <- value;
    Atomic.set n.next None;
    if n.hdr.Hdr.free_hook == Hdr.no_hook then
      n.hdr.Hdr.free_hook <- (fun () -> Pool.free t.pool n);
    T.alloc_hook t.tracker ~tid n.hdr;
    n

  let create ?tracker cfg =
    let dummy =
      {
        hdr = Hdr.create ();
        pool_index = -1;
        value = 0;
        next = Atomic.make None;
      }
    in
    {
      cfg;
      tracker =
        (match tracker with Some t -> t | None -> T.create cfg);
      pool = Pool.create ();
      head = Atomic.make dummy;
      tail = Atomic.make dummy;
    }

  let tracker t = t.tracker

  let enqueue t ~tid value =
    T.enter t.tracker ~tid;
    let n = alloc t ~tid value in
    let rec loop () =
      let tail = T.read t.tracker ~tid ~idx:0 t.tail proj in
      match T.read t.tracker ~tid ~idx:1 tail.next proj_opt with
      | Some next ->
          (* Lagging tail: help it forward and retry. *)
          ignore (Atomic.compare_and_set t.tail tail next);
          loop ()
      | None as nil ->
          if Atomic.compare_and_set tail.next nil (Some n) then
            ignore (Atomic.compare_and_set t.tail tail n)
          else loop ()
    in
    loop ();
    T.leave t.tracker ~tid

  let dequeue t ~tid =
    T.enter t.tracker ~tid;
    let rec loop () =
      let head = T.read t.tracker ~tid ~idx:0 t.head proj in
      let tail = Atomic.get t.tail in
      match T.read t.tracker ~tid ~idx:1 head.next proj_opt with
      | None -> None
      | Some next ->
          if head == tail then begin
            (* Tail lags behind a non-empty queue: help. *)
            ignore (Atomic.compare_and_set t.tail tail next);
            loop ()
          end
          else if Atomic.compare_and_set t.head head next then begin
            (* [next] is protected (idx 1), so reading its value after
               winning the head CAS is safe even though another
               dequeuer may immediately retire it as the new dummy —
               the situation SMR exists for. *)
            let v = next.value in
            (* The initial static dummy has the default no-op free
               hook, so the uniform retire path covers it too. *)
            T.retire t.tracker ~tid head.hdr;
            Some v
          end
          else loop ()
    in
    let r = loop () in
    T.leave t.tracker ~tid;
    r

  let length t =
    let rec go acc n =
      match Atomic.get n.next with None -> acc | Some nx -> go (acc + 1) nx
    in
    go 0 (Atomic.get t.head)

  let flush t ~tid = T.flush t.tracker ~tid
  let stats t = T.stats t.tracker
end
