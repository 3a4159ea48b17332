let spare = 15

let copy (b : 'a) : 'a =
  let r = Obj.repr b in
  if Obj.is_int r then invalid_arg "Padded.copy: immediate value";
  let tag = Obj.tag r in
  if tag = Obj.double_array_tag then invalid_arg "Padded.copy: float array";
  if tag >= Obj.no_scan_tag then invalid_arg "Padded.copy: no-scan block";
  (* Continuation, lazy, closure, object, infix and forward blocks
     carry layout the runtime reads beyond the tag. *)
  if tag >= Obj.cont_tag then invalid_arg "Padded.copy: special block";
  let n = Obj.size r in
  (* [new_block] fills the fields with [()], so the padding is scanned
     harmlessly by the GC. *)
  let p = Obj.new_block tag (n + spare) in
  for i = 0 to n - 1 do
    Obj.set_field p i (Obj.field r i)
  done;
  Obj.obj p

let atomic v = copy (Atomic.make v)
