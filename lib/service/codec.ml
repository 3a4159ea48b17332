type mutation = Set of { key : int; value : int } | Unset of int

type request =
  | Get of int
  | Put of { key : int; value : int }
  | Del of int
  | Cas of { key : int; expected : int; desired : int }
  | Rep_info
  | Rep_pull of { shard : int; from : int; max : int }
  | Cl_info
  | Cl_grant of { slot : int; version : int; token : int }
  | Cl_freeze of { slot : int; target : int }
  | Cl_release of { slot : int }
  | Cl_snap of { slot : int; shard : int; cursor : int; max : int; base : int }
  | Cl_apply of { records : (int * mutation) list }
  | Cl_base of { slot : int }
  | Cl_purge of { slot : int }
  | Putb of { key : int; value : string }
  | Getc of int
  | A_info

type reply =
  | Value of int
  | Value_blob of string
  | Val_ref of { cls : int; off : int; len : int; gen : int }
  | Arena_info of { slot : int; gen : int; size : int }
  | Not_found
  | Created
  | Updated
  | Deleted
  | Cas_ok
  | Cas_fail
  | Shed
  | Error of string
  | Rep_state of int array
  | Rep_batch of { last : int; records : (int * mutation) list }
  | Moved of { slot : int; node : int }
  | Cl_state of { version : int; node : int; owners : int array }
  | Cl_snap_batch of {
      seq : int;
      next : int;
      kvs : (int * int) list;
      tombs : int list;
      delta : bool;
    }
  | Cl_ok
  | Cl_token of { token : int }

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* Generous: the largest legitimate payload is CAS (1 + 3*8 bytes);
   Error replies carry a message we cap well below this. *)
let max_frame = 4096

(* Opcodes.  Requests in 0x01..0x7f, replies with the high bit set, so
   a stray reply fed to the request decoder fails loudly. *)
let op_get = 0x01
let op_put = 0x02
let op_del = 0x03
let op_cas = 0x04
let op_rep_info = 0x05
let op_rep_pull = 0x06
let op_cl_info = 0x07
let op_cl_grant = 0x08
let op_cl_freeze = 0x09
let op_cl_release = 0x0a
let op_cl_snap = 0x0b
let op_cl_apply = 0x0c
let op_cl_base = 0x0d
let op_cl_purge = 0x0e
let op_putb = 0x0f
let op_getc = 0x10
let op_a_info = 0x11
let op_value = 0x81
let op_not_found = 0x82
let op_created = 0x83
let op_updated = 0x84
let op_deleted = 0x85
let op_cas_ok = 0x86
let op_cas_fail = 0x87
let op_shed = 0x88
let op_error = 0x89
let op_rep_state = 0x8a
let op_rep_batch = 0x8b
let op_moved = 0x8c
let op_cl_state = 0x8d
let op_cl_snap_batch = 0x8e
let op_cl_ok = 0x8f
let op_cl_token = 0x90
let op_value_blob = 0x91
let op_val_ref = 0x92
let op_arena_info = 0x93

(* Snapshot frame opcodes: disjoint from both wire opcode ranges so a
   snapshot frame fed to a wire decoder (or vice versa) fails loudly.
   WAL record payloads start with the mutation kind byte (0/1), also
   outside both wire ranges. *)
let op_snap_head = 0x13
let op_snap_kv = 0x14
let op_snap_delta_head = 0x15
let op_snap_tomb = 0x16

(* Mutation records inside Rep_batch payloads and WAL frames:
   [kind(1)][seq(8)][key(8)] plus [value(8)] for Set. *)
let mutation_len = function Set _ -> 25 | Unset _ -> 17

(* The largest number of records a Rep_batch can carry inside
   max_frame: 1 (op) + 8 (last) + 2 (count) + n*25 <= 4096. *)
let rep_batch_max = 150

(* Cl_apply shares the mutation record format: 1 + 2 + n*25 <= 4096
   allows 163; capped at the Rep_batch figure so one pulled batch
   always re-ships as one apply frame. *)
let cl_apply_max = 150

(* Byte-valued payloads: a Putb carries [op][key(8)][len(2)][bytes],
   a Value_blob just [op][bytes] — both capped so the frame plus its
   4-byte length prefix stays well inside max_frame. *)
let blob_max = max_frame - 16

(* Cl_snap_batch bindings are 16 bytes each (tombstones 8): the
   22-byte header plus 200 bindings is 3222 <= 4096, leaving slack for
   a page's tombstones.  Pagers cap a page's binding+tombstone count
   at this figure, so the worst all-bindings page still fits. *)
let cl_snap_max = 200

(* OCaml ints are 63-bit; the wire carries 64-bit two's complement, so
   every OCaml int round-trips exactly. *)
let put_i64 buf v = Buffer.add_int64_be buf (Int64.of_int v)

let get_i64 payload off =
  if Bytes.length payload < off + 8 then
    malformed "truncated operand at offset %d" off;
  Int64.to_int (Bytes.get_int64_be payload off)

let expect_len payload n op =
  if Bytes.length payload <> n then
    malformed "opcode 0x%02x: payload %d bytes, expected %d" op
      (Bytes.length payload) n

let frame buf payload_len fill =
  Buffer.add_int32_be buf (Int32.of_int payload_len);
  let before = Buffer.length buf in
  fill ();
  assert (Buffer.length buf - before = payload_len)

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3 reflected polynomial, the zlib one) for WAL and
   snapshot records.  Table-driven; OCaml's 63-bit ints hold the
   32-bit state without boxing.  The table is built eagerly at module
   initialisation: the first CRCs of a fresh daemon run on several
   shard consumer domains at once, and forcing a shared [lazy] from
   two domains concurrently raises [CamlinternalLazy.Undefined] in
   one of them. *)

let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Codec.crc32: range out of bounds";
  let t = crc_table in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := t.((!c lxor Char.code (String.unsafe_get s i)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* A checksummed frame: ordinary frame whose payload ends in the CRC32
   of everything before it.  [fill] writes the body; the CRC is
   appended here so encoders cannot forget it. *)
let checked_frame buf body_len fill =
  frame buf (body_len + 4) (fun () ->
      let start = Buffer.length buf in
      fill ();
      assert (Buffer.length buf - start = body_len);
      let body = Buffer.sub buf start body_len in
      Buffer.add_int32_be buf (Int32.of_int (crc32 body ~pos:0 ~len:body_len)))

(* Validate a checksummed payload; returns the body length.  The
   [what] tag names the record kind in the failure message. *)
let check_crc what payload =
  let len = Bytes.length payload in
  if len < 5 then malformed "%s: payload %d bytes, too short for a CRC" what len;
  let body_len = len - 4 in
  let stored = Int32.to_int (Bytes.get_int32_be payload body_len) land 0xFFFFFFFF in
  let actual = crc32 (Bytes.unsafe_to_string payload) ~pos:0 ~len:body_len in
  if stored <> actual then
    malformed "%s: CRC mismatch (stored 0x%08x, computed 0x%08x)" what stored
      actual;
  body_len

let put_mutation buf seq (m : mutation) =
  match m with
  | Set { key; value } ->
      Buffer.add_uint8 buf 1;
      put_i64 buf seq;
      put_i64 buf key;
      put_i64 buf value
  | Unset k ->
      Buffer.add_uint8 buf 0;
      put_i64 buf seq;
      put_i64 buf k

let get_mutation payload off =
  if Bytes.length payload < off + 17 then
    malformed "truncated mutation at offset %d" off;
  let kind = Bytes.get_uint8 payload off in
  let seq = get_i64 payload (off + 1) in
  match kind with
  | 0 -> ((seq, Unset (get_i64 payload (off + 9))), off + 17)
  | 1 ->
      if Bytes.length payload < off + 25 then
        malformed "truncated Set mutation at offset %d" off;
      ( (seq, Set { key = get_i64 payload (off + 9); value = get_i64 payload (off + 17) }),
        off + 25 )
  | k -> malformed "unknown mutation kind %d at offset %d" k off

let get_mutations payload ~off ~count =
  let o = ref off in
  let records =
    List.init count (fun _ ->
        let r, next = get_mutation payload !o in
        o := next;
        r)
  in
  if !o <> Bytes.length payload then
    malformed "mutation batch: %d trailing bytes" (Bytes.length payload - !o);
  records

let encode_request buf = function
  | Get k ->
      frame buf 9 (fun () ->
          Buffer.add_uint8 buf op_get;
          put_i64 buf k)
  | Put { key; value } ->
      frame buf 17 (fun () ->
          Buffer.add_uint8 buf op_put;
          put_i64 buf key;
          put_i64 buf value)
  | Del k ->
      frame buf 9 (fun () ->
          Buffer.add_uint8 buf op_del;
          put_i64 buf k)
  | Cas { key; expected; desired } ->
      frame buf 25 (fun () ->
          Buffer.add_uint8 buf op_cas;
          put_i64 buf key;
          put_i64 buf expected;
          put_i64 buf desired)
  | Rep_info -> frame buf 1 (fun () -> Buffer.add_uint8 buf op_rep_info)
  | Rep_pull { shard; from; max } ->
      frame buf 25 (fun () ->
          Buffer.add_uint8 buf op_rep_pull;
          put_i64 buf shard;
          put_i64 buf from;
          put_i64 buf max)
  | Cl_info -> frame buf 1 (fun () -> Buffer.add_uint8 buf op_cl_info)
  | Cl_grant { slot; version; token } ->
      frame buf 25 (fun () ->
          Buffer.add_uint8 buf op_cl_grant;
          put_i64 buf slot;
          put_i64 buf version;
          put_i64 buf token)
  | Cl_freeze { slot; target } ->
      frame buf 17 (fun () ->
          Buffer.add_uint8 buf op_cl_freeze;
          put_i64 buf slot;
          put_i64 buf target)
  | Cl_release { slot } ->
      frame buf 9 (fun () ->
          Buffer.add_uint8 buf op_cl_release;
          put_i64 buf slot)
  | Cl_snap { slot; shard; cursor; max; base } ->
      frame buf 41 (fun () ->
          Buffer.add_uint8 buf op_cl_snap;
          put_i64 buf slot;
          put_i64 buf shard;
          put_i64 buf cursor;
          put_i64 buf max;
          put_i64 buf base)
  | Cl_base { slot } ->
      frame buf 9 (fun () ->
          Buffer.add_uint8 buf op_cl_base;
          put_i64 buf slot)
  | Cl_purge { slot } ->
      frame buf 9 (fun () ->
          Buffer.add_uint8 buf op_cl_purge;
          put_i64 buf slot)
  | Putb { key; value } ->
      let n = String.length value in
      if n > blob_max then
        invalid_arg "Codec.encode_request: Putb value over blob_max";
      frame buf
        (1 + 8 + 2 + n)
        (fun () ->
          Buffer.add_uint8 buf op_putb;
          put_i64 buf key;
          Buffer.add_uint16_be buf n;
          Buffer.add_string buf value)
  | Getc k ->
      frame buf 9 (fun () ->
          Buffer.add_uint8 buf op_getc;
          put_i64 buf k)
  | A_info -> frame buf 1 (fun () -> Buffer.add_uint8 buf op_a_info)
  | Cl_apply { records } ->
      if List.length records > cl_apply_max then
        invalid_arg "Codec.encode_request: Cl_apply record count over cap";
      let body =
        List.fold_left (fun a (_, m) -> a + mutation_len m) 0 records
      in
      frame buf (1 + 2 + body) (fun () ->
          Buffer.add_uint8 buf op_cl_apply;
          Buffer.add_uint16_be buf (List.length records);
          List.iter (fun (seq, m) -> put_mutation buf seq m) records)

let encode_reply buf = function
  | Value v ->
      frame buf 9 (fun () ->
          Buffer.add_uint8 buf op_value;
          put_i64 buf v)
  | Value_blob s ->
      let n = String.length s in
      if n > blob_max then
        invalid_arg "Codec.encode_reply: Value_blob over blob_max";
      frame buf (1 + n) (fun () ->
          Buffer.add_uint8 buf op_value_blob;
          Buffer.add_string buf s)
  | Val_ref { cls; off; len; gen } ->
      frame buf 33 (fun () ->
          Buffer.add_uint8 buf op_val_ref;
          put_i64 buf cls;
          put_i64 buf off;
          put_i64 buf len;
          put_i64 buf gen)
  | Arena_info { slot; gen; size } ->
      frame buf 25 (fun () ->
          Buffer.add_uint8 buf op_arena_info;
          put_i64 buf slot;
          put_i64 buf gen;
          put_i64 buf size)
  | Not_found -> frame buf 1 (fun () -> Buffer.add_uint8 buf op_not_found)
  | Created -> frame buf 1 (fun () -> Buffer.add_uint8 buf op_created)
  | Updated -> frame buf 1 (fun () -> Buffer.add_uint8 buf op_updated)
  | Deleted -> frame buf 1 (fun () -> Buffer.add_uint8 buf op_deleted)
  | Cas_ok -> frame buf 1 (fun () -> Buffer.add_uint8 buf op_cas_ok)
  | Cas_fail -> frame buf 1 (fun () -> Buffer.add_uint8 buf op_cas_fail)
  | Shed -> frame buf 1 (fun () -> Buffer.add_uint8 buf op_shed)
  | Error msg ->
      let msg =
        if String.length msg > max_frame - 64 then
          String.sub msg 0 (max_frame - 64)
        else msg
      in
      frame buf
        (1 + String.length msg)
        (fun () ->
          Buffer.add_uint8 buf op_error;
          Buffer.add_string buf msg)
  | Rep_state seqs ->
      let n = Array.length seqs in
      if 1 + (8 * n) > max_frame then
        invalid_arg "Codec.encode_reply: Rep_state exceeds max_frame";
      frame buf
        (1 + (8 * n))
        (fun () ->
          Buffer.add_uint8 buf op_rep_state;
          Array.iter (fun s -> put_i64 buf s) seqs)
  | Rep_batch { last; records } ->
      if List.length records > rep_batch_max then
        invalid_arg "Codec.encode_reply: Rep_batch record count over cap";
      let body =
        List.fold_left (fun a (_, m) -> a + mutation_len m) 0 records
      in
      frame buf
        (1 + 8 + 2 + body)
        (fun () ->
          Buffer.add_uint8 buf op_rep_batch;
          put_i64 buf last;
          Buffer.add_uint16_be buf (List.length records);
          List.iter (fun (seq, m) -> put_mutation buf seq m) records)
  | Moved { slot; node } ->
      frame buf 17 (fun () ->
          Buffer.add_uint8 buf op_moved;
          put_i64 buf slot;
          put_i64 buf node)
  | Cl_state { version; node; owners } ->
      let n = Array.length owners in
      if 17 + (8 * n) > max_frame then
        invalid_arg "Codec.encode_reply: Cl_state exceeds max_frame";
      frame buf
        (17 + (8 * n))
        (fun () ->
          Buffer.add_uint8 buf op_cl_state;
          put_i64 buf version;
          put_i64 buf node;
          Array.iter (fun o -> put_i64 buf o) owners)
  | Cl_snap_batch { seq; next; kvs; tombs; delta } ->
      if List.length kvs + List.length tombs > cl_snap_max then
        invalid_arg "Codec.encode_reply: Cl_snap_batch entry count over cap";
      frame buf
        (1 + 8 + 8 + 1 + 2 + 2 + (16 * List.length kvs)
        + (8 * List.length tombs))
        (fun () ->
          Buffer.add_uint8 buf op_cl_snap_batch;
          put_i64 buf seq;
          put_i64 buf next;
          Buffer.add_uint8 buf (if delta then 1 else 0);
          Buffer.add_uint16_be buf (List.length kvs);
          Buffer.add_uint16_be buf (List.length tombs);
          List.iter
            (fun (k, v) ->
              put_i64 buf k;
              put_i64 buf v)
            kvs;
          List.iter (fun k -> put_i64 buf k) tombs)
  | Cl_ok -> frame buf 1 (fun () -> Buffer.add_uint8 buf op_cl_ok)
  | Cl_token { token } ->
      frame buf 9 (fun () ->
          Buffer.add_uint8 buf op_cl_token;
          put_i64 buf token)

let request_of_payload payload =
  if Bytes.length payload < 1 then malformed "empty payload";
  let op = Bytes.get_uint8 payload 0 in
  if op = op_get then begin
    expect_len payload 9 op;
    Get (get_i64 payload 1)
  end
  else if op = op_put then begin
    expect_len payload 17 op;
    Put { key = get_i64 payload 1; value = get_i64 payload 9 }
  end
  else if op = op_del then begin
    expect_len payload 9 op;
    Del (get_i64 payload 1)
  end
  else if op = op_cas then begin
    expect_len payload 25 op;
    Cas
      {
        key = get_i64 payload 1;
        expected = get_i64 payload 9;
        desired = get_i64 payload 17;
      }
  end
  else if op = op_rep_info then begin
    expect_len payload 1 op;
    Rep_info
  end
  else if op = op_rep_pull then begin
    expect_len payload 25 op;
    Rep_pull
      {
        shard = get_i64 payload 1;
        from = get_i64 payload 9;
        max = get_i64 payload 17;
      }
  end
  else if op = op_cl_info then begin
    expect_len payload 1 op;
    Cl_info
  end
  else if op = op_cl_grant then begin
    expect_len payload 25 op;
    Cl_grant
      {
        slot = get_i64 payload 1;
        version = get_i64 payload 9;
        token = get_i64 payload 17;
      }
  end
  else if op = op_cl_freeze then begin
    expect_len payload 17 op;
    Cl_freeze { slot = get_i64 payload 1; target = get_i64 payload 9 }
  end
  else if op = op_cl_release then begin
    expect_len payload 9 op;
    Cl_release { slot = get_i64 payload 1 }
  end
  else if op = op_cl_snap then begin
    expect_len payload 41 op;
    Cl_snap
      {
        slot = get_i64 payload 1;
        shard = get_i64 payload 9;
        cursor = get_i64 payload 17;
        max = get_i64 payload 25;
        base = get_i64 payload 33;
      }
  end
  else if op = op_cl_base then begin
    expect_len payload 9 op;
    Cl_base { slot = get_i64 payload 1 }
  end
  else if op = op_cl_purge then begin
    expect_len payload 9 op;
    Cl_purge { slot = get_i64 payload 1 }
  end
  else if op = op_putb then begin
    if Bytes.length payload < 11 then
      malformed "Putb: payload %d bytes, expected >= 11" (Bytes.length payload);
    let n = Bytes.get_uint16_be payload 9 in
    if Bytes.length payload <> 11 + n then
      malformed "Putb: declared %d value bytes but %d payload bytes" n
        (Bytes.length payload);
    Putb { key = get_i64 payload 1; value = Bytes.sub_string payload 11 n }
  end
  else if op = op_getc then begin
    expect_len payload 9 op;
    Getc (get_i64 payload 1)
  end
  else if op = op_a_info then begin
    expect_len payload 1 op;
    A_info
  end
  else if op = op_cl_apply then begin
    if Bytes.length payload < 3 then
      malformed "Cl_apply: payload %d bytes, expected >= 3"
        (Bytes.length payload);
    let count = Bytes.get_uint16_be payload 1 in
    Cl_apply { records = get_mutations payload ~off:3 ~count }
  end
  else malformed "unknown request opcode 0x%02x" op

let reply_of_payload payload =
  if Bytes.length payload < 1 then malformed "empty payload";
  let op = Bytes.get_uint8 payload 0 in
  if op = op_value then begin
    expect_len payload 9 op;
    Value (get_i64 payload 1)
  end
  else if op = op_error then
    Error (Bytes.sub_string payload 1 (Bytes.length payload - 1))
  else if op = op_value_blob then
    Value_blob (Bytes.sub_string payload 1 (Bytes.length payload - 1))
  else if op = op_val_ref then begin
    expect_len payload 33 op;
    Val_ref
      {
        cls = get_i64 payload 1;
        off = get_i64 payload 9;
        len = get_i64 payload 17;
        gen = get_i64 payload 25;
      }
  end
  else if op = op_arena_info then begin
    expect_len payload 25 op;
    Arena_info
      {
        slot = get_i64 payload 1;
        gen = get_i64 payload 9;
        size = get_i64 payload 17;
      }
  end
  else if op = op_rep_state then begin
    let body = Bytes.length payload - 1 in
    if body mod 8 <> 0 then
      malformed "Rep_state: body %d bytes not a multiple of 8" body;
    Rep_state (Array.init (body / 8) (fun i -> get_i64 payload (1 + (8 * i))))
  end
  else if op = op_rep_batch then begin
    if Bytes.length payload < 11 then
      malformed "Rep_batch: payload %d bytes, expected >= 11"
        (Bytes.length payload);
    let last = get_i64 payload 1 in
    let count = Bytes.get_uint16_be payload 9 in
    Rep_batch { last; records = get_mutations payload ~off:11 ~count }
  end
  else if op = op_moved then begin
    expect_len payload 17 op;
    Moved { slot = get_i64 payload 1; node = get_i64 payload 9 }
  end
  else if op = op_cl_token then begin
    expect_len payload 9 op;
    Cl_token { token = get_i64 payload 1 }
  end
  else if op = op_cl_state then begin
    let body = Bytes.length payload - 17 in
    if body < 0 || body mod 8 <> 0 then
      malformed "Cl_state: bad payload length %d" (Bytes.length payload);
    Cl_state
      {
        version = get_i64 payload 1;
        node = get_i64 payload 9;
        owners = Array.init (body / 8) (fun i -> get_i64 payload (17 + (8 * i)));
      }
  end
  else if op = op_cl_snap_batch then begin
    if Bytes.length payload < 22 then
      malformed "Cl_snap_batch: payload %d bytes, expected >= 22"
        (Bytes.length payload);
    let delta =
      match Bytes.get_uint8 payload 17 with
      | 0 -> false
      | 1 -> true
      | b -> malformed "Cl_snap_batch: bad delta flag %d" b
    in
    let count = Bytes.get_uint16_be payload 18 in
    let tcount = Bytes.get_uint16_be payload 20 in
    if Bytes.length payload <> 22 + (16 * count) + (8 * tcount) then
      malformed "Cl_snap_batch: %d bindings + %d tombstones but %d payload bytes"
        count tcount (Bytes.length payload);
    let toff = 22 + (16 * count) in
    Cl_snap_batch
      {
        seq = get_i64 payload 1;
        next = get_i64 payload 9;
        kvs =
          List.init count (fun i ->
              (get_i64 payload (22 + (16 * i)), get_i64 payload (30 + (16 * i))));
        tombs = List.init tcount (fun i -> get_i64 payload (toff + (8 * i)));
        delta;
      }
  end
  else begin
    expect_len payload 1 op;
    if op = op_not_found then Not_found
    else if op = op_created then Created
    else if op = op_updated then Updated
    else if op = op_deleted then Deleted
    else if op = op_cas_ok then Cas_ok
    else if op = op_cas_fail then Cas_fail
    else if op = op_shed then Shed
    else if op = op_cl_ok then Cl_ok
    else malformed "unknown reply opcode 0x%02x" op
  end

let hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let request_to_string = function
  | Get k -> Printf.sprintf "GET %d" k
  | Put { key; value } -> Printf.sprintf "PUT %d=%d" key value
  | Putb { key; value } -> Printf.sprintf "PUTB %d=%s" key (hex value)
  | Getc k -> Printf.sprintf "GETC %d" k
  | A_info -> "A_INFO"
  | Del k -> Printf.sprintf "DEL %d" k
  | Cas { key; expected; desired } ->
      Printf.sprintf "CAS %d %d->%d" key expected desired
  | Rep_info -> "REP_INFO"
  | Rep_pull { shard; from; max } ->
      Printf.sprintf "REP_PULL shard=%d from=%d max=%d" shard from max
  | Cl_info -> "CL_INFO"
  | Cl_grant { slot; version; token } ->
      Printf.sprintf "CL_GRANT slot=%d v=%d token=%d" slot version token
  | Cl_freeze { slot; target } ->
      Printf.sprintf "CL_FREEZE slot=%d target=%d" slot target
  | Cl_release { slot } -> Printf.sprintf "CL_RELEASE slot=%d" slot
  | Cl_snap { slot; shard; cursor; max; base } ->
      Printf.sprintf "CL_SNAP slot=%d shard=%d cursor=%d max=%d base=%d" slot
        shard cursor max base
  | Cl_base { slot } -> Printf.sprintf "CL_BASE slot=%d" slot
  | Cl_purge { slot } -> Printf.sprintf "CL_PURGE slot=%d" slot
  | Cl_apply { records } ->
      Printf.sprintf "CL_APPLY n=%d" (List.length records)

let reply_to_string = function
  | Value v -> Printf.sprintf "VALUE %d" v
  (* Full hex, not a digest: the transport-identity smoke compares
     these strings byte for byte. *)
  | Value_blob s -> Printf.sprintf "BLOB %s" (hex s)
  | Val_ref { cls; off; len; gen } ->
      Printf.sprintf "VAL_REF cls=%d off=%d len=%d gen=%d" cls off len gen
  | Arena_info { slot; gen; size } ->
      Printf.sprintf "ARENA_INFO slot=%d gen=%d size=%d" slot gen size
  | Not_found -> "NOT_FOUND"
  | Created -> "CREATED"
  | Updated -> "UPDATED"
  | Deleted -> "DELETED"
  | Cas_ok -> "CAS_OK"
  | Cas_fail -> "CAS_FAIL"
  | Shed -> "SHED"
  | Error m -> "ERROR " ^ m
  | Rep_state seqs ->
      Printf.sprintf "REP_STATE [%s]"
        (String.concat ";" (Array.to_list (Array.map string_of_int seqs)))
  | Rep_batch { last; records } ->
      Printf.sprintf "REP_BATCH last=%d n=%d" last (List.length records)
  | Moved { slot; node } -> Printf.sprintf "MOVED slot=%d node=%d" slot node
  | Cl_state { version; node; owners } ->
      Printf.sprintf "CL_STATE v=%d node=%d slots=%d" version node
        (Array.length owners)
  | Cl_snap_batch { seq; next; kvs; tombs; delta } ->
      Printf.sprintf "CL_SNAP_BATCH seq=%d next=%d n=%d tombs=%d%s" seq next
        (List.length kvs) (List.length tombs)
        (if delta then " delta" else "")
  | Cl_ok -> "CL_OK"
  | Cl_token { token } -> Printf.sprintf "CL_TOKEN %d" token

let key_of_request = function
  | Get k | Del k | Getc k -> k
  | Put { key; _ } | Cas { key; _ } | Putb { key; _ } -> key
  (* Replication and cluster-control requests are not routed by key;
     they are answered by the replication/cluster handler before shard
     routing (Conn [ext]) and rejected by [Shard.exec] if they slip
     past it. *)
  | Rep_info | Rep_pull _ | Cl_info | Cl_grant _ | Cl_freeze _ | Cl_release _
  | Cl_snap _ | Cl_apply _ | Cl_base _ | Cl_purge _ | A_info ->
      0

let mutation_of_exec req reply =
  match (req, reply) with
  | Put { key; value }, (Created | Updated) -> Some (Set { key; value })
  | Del k, Deleted -> Some (Unset k)
  (* A successful CAS logs as an absolute Set: replay must be
     idempotent over a fuzzy snapshot, so conditionals never reach the
     log — only their witnessed effect does. *)
  | Cas { key; desired; _ }, Cas_ok -> Some (Set { key; value = desired })
  (* Putb stores arena bytes, which the int-valued WAL/replication
     mutation format cannot carry — arena-backed stores are not
     WAL-composed (kvd rejects --arena with --wal). *)
  | Putb _, _ -> None
  | _ -> None

let request_of_mutation = function
  | Set { key; value } -> Put { key; value }
  | Unset k -> Del k

let mutation_to_string = function
  | Set { key; value } -> Printf.sprintf "SET %d=%d" key value
  | Unset k -> Printf.sprintf "UNSET %d" k

(* ------------------------------------------------------------------ *)
(* Arena payload convention.  An arena-backed store keeps every value
   as raw bytes in the shared mapping; byte 0 tags the kind (0 = int
   in 8-byte big-endian, 1 = blob) so int traffic stays
   reply-identical between heap-backed and arena-backed daemons, and
   a zero-copy client decodes exactly what the daemon's copy path
   would have sent. *)

let arena_payload_int v =
  let b = Bytes.create 9 in
  Bytes.set_uint8 b 0 0;
  Bytes.set_int64_be b 1 (Int64.of_int v);
  Bytes.unsafe_to_string b

let arena_payload_blob s =
  if String.length s > blob_max then
    invalid_arg "Codec.arena_payload_blob: over blob_max";
  "\x01" ^ s

let arena_payload_int_value s =
  if String.length s = 9 && s.[0] = '\x00' then
    Some (Int64.to_int (String.get_int64_be s 1))
  else None

let reply_of_arena_payload s =
  if String.length s = 0 then Error "empty arena payload"
  else
    match s.[0] with
    | '\x00' -> (
        match arena_payload_int_value s with
        | Some v -> Value v
        | None -> Error "malformed arena int payload")
    | '\x01' -> Value_blob (String.sub s 1 (String.length s - 1))
    | _ -> Error "unknown arena payload kind"

(* ------------------------------------------------------------------ *)
(* Durable record formats: WAL records and snapshot frames.  Same
   4-byte length framing as the wire, with a trailing CRC32 so torn or
   bit-rotted log tails are detectable. *)

let encode_wal_record buf ~seq (m : mutation) =
  checked_frame buf (mutation_len m) (fun () -> put_mutation buf seq m)

let decode_wal_record payload =
  let len = Bytes.length payload in
  if len < 17 + 4 then malformed "wal record: payload %d bytes, too short" len;
  let body_len = len - 4 in
  let stored = Int32.to_int (Bytes.get_int32_be payload body_len) land 0xFFFFFFFF in
  let actual = crc32 (Bytes.unsafe_to_string payload) ~pos:0 ~len:body_len in
  (* The seq field is reported best-effort even when the CRC fails:
     recovery error messages must name the damaged record. *)
  let seq_field = get_i64 payload 1 in
  if stored <> actual then
    malformed "wal record seq=%d: CRC mismatch (stored 0x%08x, computed 0x%08x)"
      seq_field stored actual;
  let (seq, m), next = get_mutation payload 0 in
  if next <> body_len then
    malformed "wal record seq=%d: %d trailing bytes" seq (body_len - next);
  (seq, m)

let encode_snap_head buf ~seq ~count =
  checked_frame buf 17 (fun () ->
      Buffer.add_uint8 buf op_snap_head;
      put_i64 buf seq;
      put_i64 buf count)

let decode_snap_head payload =
  let body_len = check_crc "snapshot header" payload in
  if body_len <> 17 || Bytes.get_uint8 payload 0 <> op_snap_head then
    malformed "snapshot header: bad opcode or length";
  (get_i64 payload 1, get_i64 payload 9)

let encode_snap_kv buf ~key ~value =
  checked_frame buf 17 (fun () ->
      Buffer.add_uint8 buf op_snap_kv;
      put_i64 buf key;
      put_i64 buf value)

let decode_snap_kv payload =
  let body_len = check_crc "snapshot binding" payload in
  if body_len <> 17 || Bytes.get_uint8 payload 0 <> op_snap_kv then
    malformed "snapshot binding: bad opcode or length";
  (get_i64 payload 1, get_i64 payload 9)

(* Delta snapshot frames: a header carrying the chain link ([from] =
   the stamp of the snapshot this delta extends, [seq] = the new chain
   tip) plus binding and tombstone counts; then exactly that many
   {!op_snap_kv} and {!op_snap_tomb} frames. *)

let encode_snap_delta_head buf ~from ~seq ~sets ~tombs =
  checked_frame buf 33 (fun () ->
      Buffer.add_uint8 buf op_snap_delta_head;
      put_i64 buf from;
      put_i64 buf seq;
      put_i64 buf sets;
      put_i64 buf tombs)

let decode_snap_delta_head payload =
  let body_len = check_crc "delta snapshot header" payload in
  if body_len <> 33 || Bytes.get_uint8 payload 0 <> op_snap_delta_head then
    malformed "delta snapshot header: bad opcode or length";
  (get_i64 payload 1, get_i64 payload 9, get_i64 payload 17, get_i64 payload 25)

let encode_snap_tomb buf ~key =
  checked_frame buf 9 (fun () ->
      Buffer.add_uint8 buf op_snap_tomb;
      put_i64 buf key)

let decode_snap_tomb payload =
  let body_len = check_crc "snapshot tombstone" payload in
  if body_len <> 9 || Bytes.get_uint8 payload 0 <> op_snap_tomb then
    malformed "snapshot tombstone: bad opcode or length";
  get_i64 payload 1

(* ------------------------------------------------------------------ *)
(* Streaming frame reading over any pull source — the one frame loop
   shared by the socket transport ([Conn]) and WAL/snapshot replay.
   A source has the [Unix.read] shape: fill up to [len] bytes at
   [off], return the count, 0 meaning end of stream. *)

type source = bytes -> int -> int -> int
type frame = Frame of bytes | Eof | Torn of { got : int }

let read_full read buf off len =
  let rec go got =
    if got = len then got
    else
      let n = read buf (off + got) (len - got) in
      if n = 0 then got else go (got + n)
  in
  go 0

(* A persistent frame decoder over one source.  The length-prefix
   scan lives here once, shared by every transport: the socket path
   (a [Unix.read]-shaped source), the shared-memory ring path (whose
   source may deliver a frame in two chunks when it wraps the ring
   boundary), and WAL/snapshot replay.  Keeping the 4-byte header
   scratch in the reader — rather than allocating it per frame, as
   the original contiguous-buffer reader did — makes the per-frame
   cost one payload allocation, with no staging copies on any path. *)
type reader = { src : source; limit : int; hdr : bytes }

let frame_reader ?(max_frame = max_frame) src =
  { src; limit = max_frame; hdr = Bytes.create 4 }

let next_frame r =
  match read_full r.src r.hdr 0 4 with
  | 0 -> Eof
  | n when n < 4 -> Torn { got = n }
  | _ ->
      let len = Int32.to_int (Bytes.get_int32_be r.hdr 0) in
      if len < 0 || len > r.limit then
        malformed "frame length %d out of bounds" len;
      let payload = Bytes.create len in
      let got = read_full r.src payload 0 len in
      if got < len then Torn { got = 4 + got } else Frame payload

let read_frame_from ?max_frame read = next_frame (frame_reader ?max_frame read)

let fold_frames ?max_frame read f acc =
  let r = frame_reader ?max_frame read in
  let rec go acc =
    match next_frame r with
    | Eof -> (acc, None)
    | Torn { got } -> (acc, Some got)
    | Frame p -> go (f acc p)
  in
  go acc

let string_source s =
  let pos = ref 0 in
  fun buf off len ->
    let n = min len (String.length s - !pos) in
    Bytes.blit_string s !pos buf off n;
    pos := !pos + n;
    n
