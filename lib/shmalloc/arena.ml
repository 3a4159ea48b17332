(* A lock-free, size-classed value arena inside a shared mapping.

   The arena is a regular file, mmap'd by the daemon (Owner) and by
   every zero-copy client (Reader):

     page 0 (4096 B of aligned words — control):
       [0] magic   [1] version   [2] generation   [3] state
       [4] nclasses  [5] nslots  [6] era clock
       [8+4c .. 11+4c]   class c: region base, block bytes,
                         payload bytes, block count
       [64+8c]  class c free-list head  ⟨tag | offset⟩, a line apart
       [128+8c] class c bump watermark (next virgin block index)
       [192+c] / [200+c]  class c alloc / free counters
       [216] blocks retired   [217] retired blocks freed
     page 1 (4096 B — reservation slots, 8 words per slot):
       [512+8s] slot s reservation word  ⟨era | list head⟩
       [513+8s] slot s owner pid         [514+8s] slot s heartbeat
     bytes 8192 …  class regions, back to back

   Every shared word is an aligned 8-byte cell accessed through the C
   atomic stubs; free lists and reservation lists link blocks by byte
   offset (0 = nil) so the structure is position-independent across
   the two processes' different map addresses.

   Blocks carry a 5-word header:

     w0 gen    full-width generation, bumped when the block is RETIRED
     w1 birth  era clock value at allocation (Hyaline birth era)
     w2 next   free-list / reservation-list link
     w3 link   batch chain (stays intact while nodes sit in lists)
     w4 refs   for the batch's first block (the REFS node): the nref
               counter; for every other node: the REFS block's offset

   Reservation words use the Head.Packed layout (era in the high
   bits, a 40-bit offset in the low bits), making the slot page a
   cross-process continuation of the in-process reservation array.

   Reclamation (policy Handoff — Hyaline-S/Crystalline shape):
   retired blocks accumulate per-tid into a batch; once the batch has
   nslots+1 blocks it is flushed — one node CAS-pushed onto each
   active slot whose era is ≥ the batch's minimum birth era (slots
   whose era predates every possible reference are skipped, which is
   what bounds the garbage a stalled reader pins: blocks born after
   its published era are never handed to it).  The REFS node's
   counter takes the insert count in one fetch_add; each reader's
   leave detaches its list wholesale and decrements per node; whoever
   brings the counter to zero with the add landed frees the whole
   chain back to the class free lists.  Policy Epoch is the EBR
   baseline the CI gate contrasts against: a limbo list freed only
   when every active slot's era has passed the retire era, so one
   stalled reader pins every later retirement.

   Safety does NOT rest on the reservations alone: a reader
   materializing a Val_ref copies the bytes out, fences, and re-reads
   the generation stamp.  Since the generation is bumped at retire
   and a block is only rewritten after retire+free+realloc, an
   unchanged stamp proves the copied bytes are the referenced value;
   a changed stamp sends the reader down the copy path.  The
   reservation discipline is the fast path and the robustness bound,
   the stamp is the correctness argument. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type chars =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

external a_load : ints -> int -> int = "ml_shma_load" [@@noalloc]
external a_store : ints -> int -> int -> unit = "ml_shma_store" [@@noalloc]
external a_cas : ints -> int -> int -> int -> bool = "ml_shma_cas" [@@noalloc]
external a_faa : ints -> int -> int -> int = "ml_shma_faa" [@@noalloc]
external a_exchange : ints -> int -> int -> int = "ml_shma_exchange" [@@noalloc]
external a_fence : unit -> unit = "ml_shma_fence" [@@noalloc]

external blit_to : string -> int -> chars -> int -> int -> unit
  = "ml_shma_blit_to"
[@@noalloc]

external blit_from : chars -> int -> bytes -> int -> int -> unit
  = "ml_shma_blit_from"
[@@noalloc]

exception Bad_arena of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_arena s)) fmt

(* 6 bytes of ASCII "KVARN1", same 63-bit-safe shape as Seg's magic. *)
let magic = 0x4B5641524E31
let version = 1
let header_bytes = 8192
let state_init = 0
let state_open = 1
let state_closed = 2
let max_classes = 8
let max_slots = 64
let hdr_words = 5
let hdr_bytes = hdr_words * 8

(* Control cells. *)
let c_magic = 0
let c_version = 1
let c_generation = 2
let c_state = 3
let c_nclasses = 4
let c_nslots = 5
let c_era = 6
let c_cls_base c = 8 + (4 * c)
let c_cls_block c = 9 + (4 * c)
let c_cls_payload c = 10 + (4 * c)
let c_cls_nblocks c = 11 + (4 * c)
let c_free c = 64 + (8 * c)
let c_bump c = 128 + (8 * c)
let c_allocs c = 192 + c
let c_frees c = 200 + c
let c_retired = 216
let c_freed = 217
let c_slot_word s = 512 + (8 * s)
let c_slot_pid s = 513 + (8 * s)
let c_slot_hb s = 514 + (8 * s)

(* ⟨era | head⟩ packing, the Head.Packed layout: 40 bits of byte
   offset below, the (22-bit) era — or free-list ABA tag — above. *)
let offset_bits = 40
let offset_mask = (1 lsl offset_bits) - 1
let era_mask = (1 lsl 22) - 1
let pack_word ~era ~head = (era lsl offset_bits) lor head
let word_era w = w lsr offset_bits
let word_head w = w land offset_mask

(* Block header word cells, given a block's byte offset. *)
let w_gen off = off / 8
let w_birth off = (off / 8) + 1
let w_next off = (off / 8) + 2
let w_link off = (off / 8) + 3
let w_refs off = (off / 8) + 4

module Ref = struct
  (* [ gen:22 | cls:3 | len:13 | idx:25 ] — 63 bits.  The whole
     reference, generation included, is one int so the server can mint a
     Val_ref from a single atomic map read: reading the offset and
     the stamp separately would let a retire+realloc slip between the
     two reads and mint a stamp that validates the wrong value. *)
  let idx_bits = 25
  let len_bits = 13
  let cls_bits = 3
  let max_len = (1 lsl len_bits) - 1
  let max_idx = (1 lsl idx_bits) - 1

  let pack ~gen ~cls ~len ~idx =
    ((gen land era_mask) lsl (idx_bits + len_bits + cls_bits))
    lor (cls lsl (idx_bits + len_bits))
    lor (len lsl idx_bits)
    lor idx

  let gen r = (r lsr (idx_bits + len_bits + cls_bits)) land era_mask
  let cls r = (r lsr (idx_bits + len_bits)) land ((1 lsl cls_bits) - 1)
  let len r = (r lsr idx_bits) land max_len
  let idx r = r land max_idx
end

type policy = Handoff | Epoch

let policy_name = function Handoff -> "handoff" | Epoch -> "epoch"

let policy_of_string = function
  | "handoff" -> Some Handoff
  | "epoch" -> Some Epoch
  | _ -> None

type role = Owner | Reader

(* Owner-side, per-tid retirement state.  Handoff accumulates a
   batch chained through w_link; Epoch keeps a limbo list. *)
type builder = {
  mutable b_head : int; (* REFS node offset, 0 = empty batch *)
  mutable b_tail : int;
  mutable b_n : int;
  mutable b_min_birth : int;
  mutable b_limbo : (int * int) list; (* (offset, retire era) *)
  mutable b_limbo_n : int;
}

let fresh_builder () =
  {
    b_head = 0;
    b_tail = 0;
    b_n = 0;
    b_min_birth = max_int;
    b_limbo = [];
    b_limbo_n = 0;
  }

type t = {
  path : string;
  role : role;
  fd : Unix.file_descr;
  ints : ints;
  chars : chars;
  generation : int;
  policy : policy;
  nclasses : int;
  nslots : int;
  size : int;
  builders : builder array;
  alloc_tick : int Atomic.t;
}

let era_freq = 64
let epoch_scan_every = 32

let default_payloads = [| 16; 128; 1024; 4104 |]
let default_blocks = [| 4096; 2048; 1024; 512 |]

(* Same fresh-stamp shape as Seg.fresh_generation: pid high, time and
   a counter folded below, never zero. *)
let gen_counter = Atomic.make 0

let fresh_generation () =
  let t_us = int_of_float (Unix.gettimeofday () *. 1e6) in
  let g =
    (Unix.getpid () lsl 44)
    lxor (t_us land 0xFFF_FFFF_FFFF)
    lxor (Atomic.fetch_and_add gen_counter 1 lsl 20)
  in
  let g = g land max_int in
  if g = 0 then 1 else g

let map_views fd ~size =
  let ints =
    Bigarray.array1_of_genarray
      (Unix.map_file fd Bigarray.int Bigarray.c_layout true [| size / 8 |])
  in
  let chars =
    Bigarray.array1_of_genarray
      (Unix.map_file fd Bigarray.char Bigarray.c_layout true [| size |])
  in
  (ints, chars)

let round8 n = (n + 7) land lnot 7

let create ~path ~slots ?(policy = Handoff) ?(tids = 8)
    ?(payloads = default_payloads) ?(blocks = default_blocks) () =
  let nclasses = Array.length payloads in
  if nclasses = 0 || nclasses > max_classes then
    invalid_arg "Arena.create: 1..8 size classes";
  if Array.length blocks <> nclasses then
    invalid_arg "Arena.create: blocks and payloads must pair up";
  if slots <= 0 || slots > max_slots then
    invalid_arg "Arena.create: 1..64 reservation slots";
  if tids <= 0 then invalid_arg "Arena.create: tids must be positive";
  Array.iteri
    (fun i p ->
      if p <= 0 || p > Ref.max_len then
        invalid_arg "Arena.create: class payload out of range";
      if i > 0 && p <= payloads.(i - 1) then
        invalid_arg "Arena.create: class payloads must ascend")
    payloads;
  Array.iter
    (fun n ->
      if n <= 0 || n > Ref.max_idx then
        invalid_arg "Arena.create: class block count out of range")
    blocks;
  let size = ref header_bytes in
  let bases = Array.make nclasses 0 in
  let bsizes = Array.make nclasses 0 in
  Array.iteri
    (fun c p ->
      let bs = hdr_bytes + round8 p in
      bases.(c) <- !size;
      bsizes.(c) <- bs;
      size := !size + (bs * blocks.(c)))
    payloads;
  let size = !size in
  if size > offset_mask then invalid_arg "Arena.create: arena too large";
  let fd =
    Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_EXCL ] 0o600
  in
  match
    Unix.ftruncate fd size;
    map_views fd ~size
  with
  | ints, chars ->
      let generation = fresh_generation () in
      Bigarray.Array1.set ints c_magic magic;
      Bigarray.Array1.set ints c_version version;
      Bigarray.Array1.set ints c_generation generation;
      Bigarray.Array1.set ints c_state state_init;
      Bigarray.Array1.set ints c_nclasses nclasses;
      Bigarray.Array1.set ints c_nslots slots;
      Bigarray.Array1.set ints c_era 1;
      for c = 0 to nclasses - 1 do
        Bigarray.Array1.set ints (c_cls_base c) bases.(c);
        Bigarray.Array1.set ints (c_cls_block c) bsizes.(c);
        Bigarray.Array1.set ints (c_cls_payload c) payloads.(c);
        Bigarray.Array1.set ints (c_cls_nblocks c) blocks.(c)
      done;
      a_fence ();
      Bigarray.Array1.set ints c_state state_open;
      {
        path;
        role = Owner;
        fd;
        ints;
        chars;
        generation;
        policy;
        nclasses;
        nslots = slots;
        size;
        builders = Array.init tids (fun _ -> fresh_builder ());
        alloc_tick = Atomic.make 0;
      }
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      raise e

let attach ~path ?expect_gen () =
  let fd =
    match Unix.openfile path [ Unix.O_RDWR ] 0 with
    | fd -> fd
    | exception Unix.Unix_error (e, _, _) ->
        bad "cannot open %s: %s" path (Unix.error_message e)
  in
  match
    let size = (Unix.fstat fd).Unix.st_size in
    if size < header_bytes then bad "%s: too small for an arena header" path;
    let hdr =
      Bigarray.array1_of_genarray
        (Unix.map_file fd Bigarray.int Bigarray.c_layout true
           [| header_bytes / 8 |])
    in
    if Bigarray.Array1.get hdr c_magic <> magic then
      bad "%s: bad magic (not a kvd value arena)" path;
    if Bigarray.Array1.get hdr c_version <> version then
      bad "%s: arena version %d, expected %d" path
        (Bigarray.Array1.get hdr c_version)
        version;
    (match Bigarray.Array1.get hdr c_state with
    | s when s = state_open -> ()
    | s when s = state_closed -> bad "%s: arena already closed" path
    | _ -> bad "%s: arena not yet open" path);
    let generation = Bigarray.Array1.get hdr c_generation in
    (match expect_gen with
    | Some g when g <> generation ->
        bad "%s: generation %#x does not match announced %#x (stale arena?)"
          path generation g
    | _ -> ());
    let nclasses = Bigarray.Array1.get hdr c_nclasses in
    let nslots = Bigarray.Array1.get hdr c_nslots in
    if nclasses <= 0 || nclasses > max_classes then
      bad "%s: corrupt class count" path;
    if nslots <= 0 || nslots > max_slots then bad "%s: corrupt slot count" path;
    let declared = ref header_bytes in
    for c = 0 to nclasses - 1 do
      let base = Bigarray.Array1.get hdr (c_cls_base c) in
      let bs = Bigarray.Array1.get hdr (c_cls_block c) in
      let nb = Bigarray.Array1.get hdr (c_cls_nblocks c) in
      if base <> !declared || bs < hdr_bytes + 8 || nb <= 0 then
        bad "%s: corrupt class table" path;
      declared := base + (bs * nb)
    done;
    if size < !declared then bad "%s: file shorter than its class table" path;
    let ints, chars = map_views fd ~size:!declared in
    {
      path;
      role = Reader;
      fd;
      ints;
      chars;
      generation;
      policy = Handoff;
      nclasses;
      nslots;
      size = !declared;
      builders = [||];
      alloc_tick = Atomic.make 0;
    }
  with
  | t -> t
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

let path t = t.path
let role t = t.role
let generation t = t.generation
let policy t = t.policy
let nslots t = t.nslots
let nclasses t = t.nclasses
let size_bytes t = t.size
let state t = Bigarray.Array1.get t.ints c_state
let is_open t = state t = state_open

let require_owner t who =
  if t.role <> Owner then invalid_arg (Printf.sprintf "Arena.%s: not owner" who)

let cls_base t c = Bigarray.Array1.get t.ints (c_cls_base c)
let cls_block t c = Bigarray.Array1.get t.ints (c_cls_block c)
let cls_payload t c = Bigarray.Array1.get t.ints (c_cls_payload c)
let cls_nblocks t c = Bigarray.Array1.get t.ints (c_cls_nblocks c)

let class_of_off t off =
  let rec go c =
    if c >= t.nclasses then bad "%s: offset %d outside every class" t.path off
    else
      let base = cls_base t c in
      if off >= base && off < base + (cls_block t c * cls_nblocks t c) then c
      else go (c + 1)
  in
  go 0

let off_of_ref t r =
  let c = Ref.cls r in
  cls_base t c + (Ref.idx r * cls_block t c)

let era t = a_load t.ints c_era

let advance_era t =
  let cur = a_load t.ints c_era in
  if cur < era_mask then ignore (a_cas t.ints c_era cur (cur + 1))

let tick_era t =
  if Atomic.fetch_and_add t.alloc_tick 1 mod era_freq = era_freq - 1 then
    advance_era t

(* Free lists: Treiber stacks of byte offsets, ABA-tagged in the same
   packed layout as the reservation words (tag where era lives). *)

let rec push_free t ~cls off =
  let h = a_load t.ints (c_free cls) in
  a_store t.ints (w_next off) (word_head h);
  if
    not
      (a_cas t.ints (c_free cls) h
         (pack_word ~era:((word_era h + 1) land era_mask) ~head:off))
  then push_free t ~cls off

let rec pop_free t ~cls =
  let h = a_load t.ints (c_free cls) in
  let off = word_head h in
  if off = 0 then None
  else
    let nxt = a_load t.ints (w_next off) in
    if
      a_cas t.ints (c_free cls) h
        (pack_word ~era:((word_era h + 1) land era_mask) ~head:nxt)
    then Some off
    else pop_free t ~cls

let bump_alloc t ~cls =
  let nb = cls_nblocks t cls in
  let old = a_faa t.ints (c_bump cls) 1 in
  if old >= nb then (
    ignore (a_faa t.ints (c_bump cls) (-1));
    None)
  else Some (cls_base t cls + (old * cls_block t cls))

let alloc_block t ~len =
  let rec try_cls c =
    if c >= t.nclasses then None
    else if cls_payload t c < len then try_cls (c + 1)
    else
      match pop_free t ~cls:c with
      | Some off -> Some (c, off)
      | None -> (
          match bump_alloc t ~cls:c with
          | Some off -> Some (c, off)
          | None -> try_cls (c + 1))
  in
  match try_cls 0 with
  | None -> None
  | Some (c, off) ->
      a_store t.ints (w_birth off) (a_load t.ints c_era);
      ignore (a_faa t.ints (c_allocs c) 1);
      tick_era t;
      Some (c, off)

let alloc_put t s =
  require_owner t "alloc_put";
  let len = String.length s in
  if len = 0 || len > Ref.max_len then None
  else
    match alloc_block t ~len with
    | None -> None
    | Some (cls, off) ->
        blit_to s 0 t.chars (off + hdr_bytes) len;
        a_fence ();
        let gen = a_load t.ints (w_gen off) in
        let idx = (off - cls_base t cls) / cls_block t cls in
        Some (Ref.pack ~gen ~cls ~len ~idx)

let read_own t r =
  (* Owner-side read of a live block: the shard consumer holding the
     reference is the block's only retirer, so no stamp check. *)
  let len = Ref.len r in
  let off = off_of_ref t r in
  let buf = Bytes.create len in
  blit_from t.chars (off + hdr_bytes) buf 0 len;
  Bytes.unsafe_to_string buf

let read_ref t ~cls ~off ~len ~gen ?gate () =
  if cls < 0 || cls >= t.nclasses then None
  else
    let base = cls_base t cls and bs = cls_block t cls in
    if
      off < base
      || off >= base + (bs * cls_nblocks t cls)
      || (off - base) mod bs <> 0
      || len <= 0
      || len > cls_payload t cls
    then None
    else begin
      let buf = Bytes.create len in
      let half = len / 2 in
      blit_from t.chars (off + hdr_bytes) buf 0 half;
      (match gate with Some f -> f () | None -> ());
      blit_from t.chars (off + hdr_bytes + half) buf half (len - half);
      a_fence ();
      if a_load t.ints (w_gen off) land era_mask = gen then
        Some (Bytes.unsafe_to_string buf)
      else None
    end

(* Batch release: whole chain back to the free lists.  Runs in
   whichever process brought the REFS counter to zero. *)
let free_batch t refs =
  let n = ref refs in
  while !n <> 0 do
    let nxt = a_load t.ints (w_link !n) in
    let c = class_of_off t !n in
    push_free t ~cls:c !n;
    ignore (a_faa t.ints (c_frees c) 1);
    ignore (a_faa t.ints c_freed 1);
    n := nxt
  done

(* Reader-side list traversal after a detach: read the links before
   the decrement — once a node's batch counter hits zero the chain
   may be freed and rewritten under us. *)
let release_list t head =
  let n = ref head in
  while !n <> 0 do
    let nxt = a_load t.ints (w_next !n) in
    let refs = a_load t.ints (w_refs !n) in
    let old = a_faa t.ints (w_refs refs) (-1) in
    if old = 1 then free_batch t refs;
    n := nxt
  done

let enter t ~slot =
  let e = a_load t.ints c_era in
  let old = a_exchange t.ints (c_slot_word slot) (pack_word ~era:e ~head:0) in
  (* A leftover list here means the previous bracket was torn down by
     a sweep race; drain it rather than leak it. *)
  release_list t (word_head old)

let leave t ~slot =
  let old = a_exchange t.ints (c_slot_word slot) 0 in
  release_list t (word_head old)

let refresh t ~slot =
  let e = a_load t.ints c_era in
  let rec go () =
    let w = a_load t.ints (c_slot_word slot) in
    if word_era w < e && word_era w <> 0 then
      if not (a_cas t.ints (c_slot_word slot) w (pack_word ~era:e ~head:(word_head w)))
      then go ()
  in
  go ()

let announce t ~slot ~pid = a_store t.ints (c_slot_pid slot) pid
let heartbeat t ~slot = ignore (a_faa t.ints (c_slot_hb slot) 1)
let slot_era t ~slot = word_era (a_load t.ints (c_slot_word slot))
let slot_pid t ~slot = a_load t.ints (c_slot_pid slot)

let sweep_slot t ~slot =
  let old = a_exchange t.ints (c_slot_word slot) 0 in
  a_store t.ints (c_slot_pid slot) 0;
  a_store t.ints (c_slot_hb slot) 0;
  release_list t (word_head old)

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception _ -> true

let sweep_dead ?(alive = pid_alive) t =
  let swept = ref 0 in
  for s = 0 to t.nslots - 1 do
    let pid = a_load t.ints (c_slot_pid s) in
    if pid <> 0 && not (alive pid) then begin
      sweep_slot t ~slot:s;
      incr swept
    end
  done;
  !swept

(* Handoff retirement. *)

let builder_append t b off =
  a_store t.ints (w_link off) 0;
  if b.b_head = 0 then begin
    b.b_head <- off;
    b.b_tail <- off;
    b.b_n <- 1;
    b.b_min_birth <- a_load t.ints (w_birth off);
    (* This block is the batch's REFS node; zero the counter a past
       life may have left behind. *)
    a_store t.ints (w_refs off) 0
  end
  else begin
    a_store t.ints (w_link b.b_tail) off;
    b.b_tail <- off;
    b.b_n <- b.b_n + 1;
    b.b_min_birth <- min b.b_min_birth (a_load t.ints (w_birth off))
  end

let flush_builder t b =
  if b.b_head <> 0 then begin
    (* Pad to nslots+1 blocks so the insert pass cannot run dry; a
       full arena just means later slots are skipped, which the
       generation stamp keeps safe (they entered after these blocks
       were retired, so no live reference can name them). *)
    let exhausted = ref false in
    while b.b_n < t.nslots + 1 && not !exhausted do
      match alloc_block t ~len:1 with
      | None -> exhausted := true
      | Some (_, off) ->
          ignore (a_faa t.ints c_retired 1);
          builder_append t b off
    done;
    let refs = b.b_head in
    let min_birth = b.b_min_birth in
    let node = ref (a_load t.ints (w_link refs)) in
    let inserts = ref 0 in
    for s = 0 to t.nslots - 1 do
      if !node <> 0 then begin
        let retry = ref true in
        while !retry do
          let w = a_load t.ints (c_slot_word s) in
          let e = word_era w in
          if e = 0 || e < min_birth then retry := false
          else begin
            a_store t.ints (w_refs !node) refs;
            a_store t.ints (w_next !node) (word_head w);
            if
              a_cas t.ints (c_slot_word s) w (pack_word ~era:e ~head:!node)
            then begin
              incr inserts;
              node := a_load t.ints (w_link !node);
              retry := false
            end
          end
        done
      end
    done;
    b.b_head <- 0;
    b.b_tail <- 0;
    b.b_n <- 0;
    b.b_min_birth <- max_int;
    if !inserts = 0 then free_batch t refs
    else
      let old = a_faa t.ints (w_refs refs) !inserts in
      if old + !inserts = 0 then free_batch t refs
  end

(* Epoch retirement: limbo entries free once every active slot's era
   has moved past their retire era; one frozen slot pins everything
   retired from then on — the baseline the robust policy is gated
   against. *)

let min_active_era t =
  let m = ref max_int in
  for s = 0 to t.nslots - 1 do
    let e = word_era (a_load t.ints (c_slot_word s)) in
    if e <> 0 && e < !m then m := e
  done;
  !m

let epoch_scan t b =
  let min_active = min_active_era t in
  let keep = ref [] and kept = ref 0 in
  List.iter
    (fun ((off, e) as entry) ->
      if e < min_active then begin
        let c = class_of_off t off in
        push_free t ~cls:c off;
        ignore (a_faa t.ints (c_frees c) 1);
        ignore (a_faa t.ints c_freed 1)
      end
      else begin
        keep := entry :: !keep;
        incr kept
      end)
    b.b_limbo;
  b.b_limbo <- !keep;
  b.b_limbo_n <- !kept

let limbo_add t ~tid off =
  let b = t.builders.(tid) in
  b.b_limbo <- (off, a_load t.ints c_era) :: b.b_limbo;
  b.b_limbo_n <- b.b_limbo_n + 1;
  if b.b_limbo_n mod epoch_scan_every = 0 then epoch_scan t b

let retire t ~tid r =
  require_owner t "retire";
  let off = off_of_ref t r in
  let g = a_load t.ints (w_gen off) in
  a_store t.ints (w_gen off) (g + 1);
  ignore (a_faa t.ints c_retired 1);
  (match t.policy with
  | Handoff ->
      let b = t.builders.(tid) in
      builder_append t b off;
      if b.b_n >= t.nslots + 1 then flush_builder t b
  | Epoch -> limbo_add t ~tid off);
  (* Retirement cadence also drives the era clock so read-only phases
     cannot freeze it. *)
  tick_era t

let flush t =
  require_owner t "flush";
  Array.iter
    (fun b ->
      match t.policy with
      | Handoff -> flush_builder t b
      | Epoch -> epoch_scan t b)
    t.builders

let retired t = a_load t.ints c_retired
let freed t = a_load t.ints c_freed
let unreclaimed t = retired t - freed t

let gauges t =
  let rows = ref [] in
  for c = t.nclasses - 1 downto 0 do
    rows :=
      (Printf.sprintf "shmalloc_c%d_allocs" c, a_load t.ints (c_allocs c))
      :: (Printf.sprintf "shmalloc_c%d_frees" c, a_load t.ints (c_frees c))
      :: (Printf.sprintf "shmalloc_c%d_bump" c, a_load t.ints (c_bump c))
      :: !rows
  done;
  ("shmalloc_era", era t)
  :: ("shmalloc_retired", retired t)
  :: ("shmalloc_freed", freed t)
  :: ("shmalloc_unreclaimed", unreclaimed t)
  :: !rows

let mark_closed t =
  a_fence ();
  Bigarray.Array1.set t.ints c_state state_closed;
  a_fence ()

let detach t = try Unix.close t.fd with Unix.Unix_error _ -> ()
let unlink t = try Unix.unlink t.path with Unix.Unix_error _ -> ()
let unlink_path path = try Unix.unlink path with Unix.Unix_error _ -> ()
