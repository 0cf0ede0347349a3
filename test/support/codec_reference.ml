(* The three payload decoders as they stood before they moved onto
   Durable.Frame's bounded reader, kept verbatim (each in a module that
   opens its owner's types) as the oracle for the rewritten ones. *)

module Site_ops = struct
  open Audit_mgmt.Site

  let decode_op s =
    let n = String.length s in
    let pos = ref 0 in
    let ( let* ) = Option.bind in
    let u64 () =
      if !pos + 8 > n then None
      else begin
        let v = Durable.Frame.get_u64 s !pos in
        pos := !pos + 8;
        if v < 0 then None else Some v
      end
    in
    let str () =
      if !pos + 4 > n then None
      else begin
        let len = Durable.Frame.get_u32 s !pos in
        pos := !pos + 4;
        if len < 0 || !pos + len > n then None
        else begin
          let v = String.sub s !pos len in
          pos := !pos + len;
          Some v
        end
      end
    in
    let entry () =
      let* wire = str () in
      Hdb.Audit_schema.of_wire wire
    in
    if n = 0 then None
    else begin
      pos := 1;
      match s.[0] with
      | 'E' ->
        let* e = entry () in
        if !pos <> n then None else Some (Op_entry e)
      | 'S' ->
        let* seq = u64 () in
        let* e = entry () in
        if !pos <> n then None else Some (Op_seq_entry (seq, e))
      | 'P' ->
        let* seq = u64 () in
        if !pos <> n then None else Some (Op_processed seq)
      | 'Q' ->
        let* seq = u64 () in
        let* reason = str () in
        let* npairs =
          if !pos + 4 > n then None
          else begin
            let v = Durable.Frame.get_u32 s !pos in
            pos := !pos + 4;
            if v < 0 then None else Some v
          end
        in
        let rec pairs acc k =
          if k = 0 then Some (List.rev acc)
          else
            let* key = str () in
            let* value = str () in
            pairs ((key, value) :: acc) (k - 1)
        in
        let* raw = pairs [] npairs in
        if !pos <> n then None else Some (Op_quarantined (seq, reason, raw))
      | 'R' ->
        let* seq = u64 () in
        if !pos <> n then None else Some (Op_unquarantined seq)
      | 'N' ->
        let* next = u64 () in
        if !pos <> n then None else Some (Op_next next)
      | _ -> None
    end
end

module Quarantine_ops = struct
  open Audit_mgmt.Quarantine

  let decode_op s =
    let n = String.length s in
    let pos = ref 0 in
    let ( let* ) = Option.bind in
    let u64 () =
      if !pos + 8 > n then None
      else begin
        let v = Durable.Frame.get_u64 s !pos in
        pos := !pos + 8;
        if v < 0 then None else Some v
      end
    in
    let str () =
      if !pos + 4 > n then None
      else begin
        let len = Durable.Frame.get_u32 s !pos in
        pos := !pos + 4;
        if len < 0 || !pos + len > n then None
        else begin
          let v = String.sub s !pos len in
          pos := !pos + len;
          Some v
        end
      end
    in
    if n = 0 then None
    else
      match s.[0] with
      | 'C' -> if n = 1 then Some Op_clear else None
      | 'R' ->
        pos := 1;
        let* seq = u64 () in
        let* site = str () in
        if !pos <> n then None else Some (Op_remove (site, seq))
      | 'A' ->
        pos := 1;
        let* seq = u64 () in
        let* site = str () in
        let* reason = str () in
        let* npairs =
          if !pos + 4 > n then None
          else begin
            let v = Durable.Frame.get_u32 s !pos in
            pos := !pos + 4;
            if v < 0 then None else Some v
          end
        in
        let rec pairs acc k =
          if k = 0 then Some (List.rev acc)
          else
            let* key = str () in
            let* value = str () in
            pairs ((key, value) :: acc) (k - 1)
        in
        let* raw = pairs [] npairs in
        if !pos <> n then None else Some (Op_add { site; seq; raw; reason })
      | _ -> None
end

module Manifest_catalogue = struct
  open Durable.Manifest
  module Frame = Durable.Frame

  let decode_payload payload =
    let n = String.length payload in
    let pos = ref 0 in
    let ( let* ) = Option.bind in
    let u32 () =
      if !pos + 4 > n then None
      else begin
        let v = Frame.get_u32 payload !pos in
        pos := !pos + 4;
        if v < 0 then None else Some v
      end
    in
    let u64 () =
      if !pos + 8 > n then None
      else begin
        let v = Frame.get_u64 payload !pos in
        pos := !pos + 8;
        if v < 0 then None else Some v
      end
    in
    let str () =
      let* len = u32 () in
      if !pos + len > n then None
      else begin
        let v = String.sub payload !pos len in
        pos := !pos + len;
        Some v
      end
    in
    let* count = u32 () in
    let rec shards acc k =
      if k = 0 then if !pos = n then Some (List.rev acc) else None
      else
        let* name = str () in
        let* lo = u64 () in
        let* hi = u64 () in
        let* records = u64 () in
        let* chain = u64 () in
        shards ({ name; lo; hi; records; chain } :: acc) (k - 1)
    in
    let* shards = shards [] count in
    Some { shards }
end

let site_decode_op = Site_ops.decode_op
let quarantine_decode_op = Quarantine_ops.decode_op
let manifest_decode_payload = Manifest_catalogue.decode_payload
