type state = { href : int; hptr : Smr.Hdr.t }
type token = state
type t = { state : state Atomic.t; spurious_every : int; ticks : int Atomic.t }

let make ?(spurious_every = 0) () =
  if spurious_every < 0 then invalid_arg "Granule.make: spurious_every < 0";
  {
    state = Prims.Padded.atomic { href = 0; hptr = Smr.Hdr.nil };
    spurious_every;
    ticks = Atomic.make 0;
  }

let ll t = Atomic.get t.state
let href (tok : token) = tok.href
let hptr (tok : token) = tok.hptr

let spurious t =
  t.spurious_every > 0
  && Atomic.fetch_and_add t.ticks 1 mod t.spurious_every = t.spurious_every - 1

let sc t tok ~href ~hptr =
  if spurious t then false
  else Atomic.compare_and_set t.state tok { href; hptr }

let peek t =
  let s = Atomic.get t.state in
  (s.href, s.hptr)
