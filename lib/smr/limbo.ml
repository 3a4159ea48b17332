type t = {
  mutable head : Hdr.t;
  mutable size : int;
  mutable since_scan : int;
  mutable allocs : int;
}

(* Owner-written on every retire and allocation: padded, so two
   threads' limbos never share a cache line. *)
let create () =
  Prims.Padded.copy { head = Hdr.nil; size = 0; since_scan = 0; allocs = 0 }

let tick_alloc t ~every =
  let c = t.allocs + 1 in
  t.allocs <- c;
  c mod every = 0

let push t h =
  h.Hdr.next <- t.head;
  t.head <- h;
  t.size <- t.size + 1;
  t.since_scan <- t.since_scan + 1

let should_scan t ~every =
  if t.since_scan >= every then begin
    t.since_scan <- 0;
    true
  end
  else false

let sweep t ~keep ~free =
  let rec go h kept_head kept_size =
    if Hdr.is_nil h then (kept_head, kept_size)
    else
      let next = h.Hdr.next in
      if keep h then begin
        h.Hdr.next <- kept_head;
        go next h (kept_size + 1)
      end
      else begin
        free h;
        go next kept_head kept_size
      end
  in
  let head, size = go t.head Hdr.nil 0 in
  t.head <- head;
  t.size <- size

let size t = t.size
let is_empty t = Hdr.is_nil t.head

let iter t f =
  let rec go h =
    if not (Hdr.is_nil h) then begin
      let next = h.Hdr.next in
      f h;
      go next
    end
  in
  go t.head
