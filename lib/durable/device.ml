(* A simulated storage device with injected crash points.

   The device separates what a real disk separates: bytes an application
   has written ([append], into the volatile page cache) versus bytes that
   have reached stable media ([sync]).  A [crash] discards the volatile
   tail — except for whatever damage the chosen crash point leaves behind —
   so recovery code can be driven through every ugly state a power cut
   produces: a torn tail record, a partial record header, a bit flip in
   the unsynced region, a truncation that died mid-fsync.

   Damage decisions draw from a SplitMix stream owned by the device (the
   seeded style of [Audit_mgmt.Fault]), so a crash schedule replays
   bit-for-bit from its seed.

   Every [append] call is remembered as one write boundary while it sits in
   the cache; [Partial_header] uses the boundaries to cut inside a record's
   header specifically, which is the classic "header landed, payload did
   not" torn write. *)

type crash_point =
  | Clean_loss (* the whole unsynced tail vanishes *)
  | Torn_tail (* an arbitrary prefix of the unsynced bytes survives *)
  | Partial_header (* the cut lands inside one record's header *)
  | Bit_flip (* the tail survives, but one bit of it flipped *)
  | Truncated_sync (* a truncation crashed mid-fsync: stable bytes lost *)

let all_crash_points = [ Clean_loss; Torn_tail; Partial_header; Bit_flip; Truncated_sync ]

let crash_point_to_string = function
  | Clean_loss -> "clean-loss"
  | Torn_tail -> "torn-tail"
  | Partial_header -> "partial-header"
  | Bit_flip -> "bit-flip"
  | Truncated_sync -> "truncated-sync"

let crash_point_of_string = function
  | "clean-loss" -> Some Clean_loss
  | "torn-tail" -> Some Torn_tail
  | "partial-header" -> Some Partial_header
  | "bit-flip" -> Some Bit_flip
  | "truncated-sync" -> Some Truncated_sync
  | _ -> None

type t = {
  mutable durable : Bytes.t; (* stable media *)
  mutable dlen : int;
  volatile : Buffer.t; (* written but not fsynced *)
  mutable marks : int list; (* volatile write-start offsets, newest first *)
  prng : Splitmix.t;
  mutable syncs : int;
  mutable crashes : int;
}

let create ?(seed = 0) () =
  { durable = Bytes.create 0;
    dlen = 0;
    volatile = Buffer.create 256;
    marks = [];
    prng = Splitmix.create ~seed;
    syncs = 0;
    crashes = 0;
  }

let of_string ?(seed = 0) image =
  let t = create ~seed () in
  t.durable <- Bytes.of_string image;
  t.dlen <- String.length image;
  t

let durable_size t = t.dlen

let unsynced t = Buffer.length t.volatile

let syncs t = t.syncs

let crashes t = t.crashes

let contents t = Bytes.sub_string t.durable 0 t.dlen

let write_buffer t =
  t.marks <- Buffer.length t.volatile :: t.marks;
  t.volatile

let append t s = Buffer.add_string (write_buffer t) s

let ensure_capacity t extra =
  let needed = t.dlen + extra in
  if needed > Bytes.length t.durable then begin
    let capacity = max needed (max 256 (2 * Bytes.length t.durable)) in
    let grown = Bytes.create capacity in
    Bytes.blit t.durable 0 grown 0 t.dlen;
    t.durable <- grown
  end

let commit_bytes t s =
  ensure_capacity t (String.length s);
  Bytes.blit_string s 0 t.durable t.dlen (String.length s);
  t.dlen <- t.dlen + String.length s

let sync t =
  let n = Buffer.length t.volatile in
  ensure_capacity t n;
  Buffer.blit t.volatile 0 t.durable t.dlen n;
  t.dlen <- t.dlen + n;
  Buffer.clear t.volatile;
  t.marks <- [];
  t.syncs <- t.syncs + 1

(* Cut the stable image to [n] bytes.  The volatile tail is discarded: a
   truncation is only issued by checkpointing code that has already synced
   everything it means to keep. *)
let truncate t n =
  Buffer.clear t.volatile;
  t.marks <- [];
  t.dlen <- min t.dlen (max 0 n);
  t.syncs <- t.syncs + 1

(* The survivor prefix of the volatile tail for each crash point. *)
let survivor t = function
  | Clean_loss | Truncated_sync -> ""
  | Torn_tail ->
    let tail = Buffer.contents t.volatile in
    if tail = "" then "" else String.sub tail 0 (Splitmix.int t.prng (String.length tail))
  | Partial_header ->
    let tail = Buffer.contents t.volatile in
    if tail = "" then ""
    else begin
      (* Pick one buffered write and keep strictly less of it than a frame
         header (8 bytes), so the scanner sees a header it cannot finish. *)
      let marks = Array.of_list (List.rev t.marks) in
      let w = Splitmix.int t.prng (Array.length marks) in
      let start = marks.(w) in
      let write_len =
        (if w + 1 < Array.length marks then marks.(w + 1) else String.length tail) - start
      in
      let keep = start + 1 + Splitmix.int t.prng (max 1 (min 7 (write_len - 1))) in
      String.sub tail 0 (min keep (String.length tail))
    end
  | Bit_flip ->
    let tail = Buffer.contents t.volatile in
    if tail = "" then ""
    else begin
      let damaged = Bytes.of_string tail in
      let pos = Splitmix.int t.prng (Bytes.length damaged) in
      let bit = Splitmix.int t.prng 8 in
      Bytes.set damaged pos (Char.chr (Char.code (Bytes.get damaged pos) lxor (1 lsl bit)));
      Bytes.to_string damaged
    end

let crash t ~point =
  let kept = survivor t point in
  (match point with
  | Truncated_sync ->
    (* The in-flight truncation died partway: the stable image itself ends
       at an arbitrary earlier byte. *)
    if t.dlen > 0 then t.dlen <- Splitmix.int t.prng (t.dlen + 1)
  | Clean_loss | Torn_tail | Partial_header | Bit_flip -> ());
  commit_bytes t kept;
  Buffer.clear t.volatile;
  t.marks <- [];
  t.crashes <- t.crashes + 1

(* The tampering fault: flip one bit of the *stable* image — bytes a sync
   already promised durable.  Unlike [crash], which only damages the
   unsynced tail, this is the mutation recovery must classify as
   [Tamper_detected] rather than a torn tail. *)
let corrupt_stable t ~pos ~bit =
  if pos < 0 || pos >= t.dlen then invalid_arg "Device.corrupt_stable: position not durable";
  if bit < 0 || bit > 7 then invalid_arg "Device.corrupt_stable: bit out of range";
  Bytes.set t.durable pos
    (Char.chr (Char.code (Bytes.get t.durable pos) lxor (1 lsl bit)))

(* Real-file interchange, for `prima recover` on WALs written by another
   process: only the stable image travels. *)
let save t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (contents t))

let load ?seed path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_string ?seed (really_input_string ic (in_channel_length ic)))
