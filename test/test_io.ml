(* Tests for Armvirt_io: virtqueues, Xen event channels and PV rings. *)

module Addr = Armvirt_mem.Addr
module Virtqueue = Armvirt_io.Virtqueue
module Event_channel = Armvirt_io.Event_channel
module Xen_ring = Armvirt_io.Xen_ring
module Grant_table = Armvirt_mem.Grant_table

(* --- Virtqueue -------------------------------------------------------- *)

let desc id = { Virtqueue.addr = Addr.ipa (id * 4096); len = 1500; id }

let test_vq_post_and_complete () =
  let vq = Virtqueue.create ~size:4 () in
  Virtqueue.add_avail vq (desc 1);
  Virtqueue.add_avail vq (desc 2);
  Alcotest.(check int) "avail" 2 (Virtqueue.avail_count vq);
  (match Virtqueue.backend_pop vq with
  | Some d -> Alcotest.(check int) "FIFO" 1 d.Virtqueue.id
  | None -> Alcotest.fail "expected a descriptor");
  Virtqueue.backend_push_used vq ~id:1 ~len:900;
  (match Virtqueue.guest_reap_used vq with
  | Some (1, 900) -> ()
  | _ -> Alcotest.fail "completion mismatch");
  Alcotest.(check int) "one still outstanding" 1 (Virtqueue.outstanding vq)

let test_vq_ring_full () =
  let vq = Virtqueue.create ~size:2 () in
  Virtqueue.add_avail vq (desc 1);
  Virtqueue.add_avail vq (desc 2);
  (match Virtqueue.add_avail vq (desc 3) with
  | () -> Alcotest.fail "expected Ring_full"
  | exception Virtqueue.Ring_full -> ());
  (* Completing one buffer frees a slot only after the guest reaps. *)
  ignore (Virtqueue.backend_pop vq);
  Virtqueue.backend_push_used vq ~id:1 ~len:0;
  (match Virtqueue.add_avail vq (desc 3) with
  | () -> Alcotest.fail "still outstanding until reaped"
  | exception Virtqueue.Ring_full -> ());
  ignore (Virtqueue.guest_reap_used vq);
  Virtqueue.add_avail vq (desc 3)

let test_vq_kick_suppression () =
  (* The batching protocol of section V: no kick needed while the
     backend is live; parking re-arms notification. *)
  let vq = Virtqueue.create () in
  Alcotest.(check bool) "initially needs kick" true (Virtqueue.kick_needed vq);
  Virtqueue.add_avail vq (desc 1);
  ignore (Virtqueue.backend_pop vq);
  Alcotest.(check bool) "backend live, no kick" false (Virtqueue.kick_needed vq);
  Virtqueue.backend_park vq;
  Alcotest.(check bool) "parked, kick again" true (Virtqueue.kick_needed vq)

let test_vq_ownership_error () =
  let vq = Virtqueue.create () in
  Alcotest.check_raises "completing unowned buffer"
    (Invalid_argument "Virtqueue.backend_push_used: id not owned by backend")
    (fun () -> Virtqueue.backend_push_used vq ~id:9 ~len:0)

let test_vq_size_validation () =
  Alcotest.check_raises "power of two"
    (Invalid_argument "Virtqueue.create: size must be a power of two")
    (fun () -> ignore (Virtqueue.create ~size:100 ()))

let prop_vq_fifo =
  QCheck.Test.make ~name:"virtqueue delivers buffers in posting order"
    QCheck.(list_of_size (Gen.int_range 1 64) unit)
    (fun posts ->
      let vq = Virtqueue.create ~size:256 () in
      List.iteri (fun i () -> Virtqueue.add_avail vq (desc i)) posts;
      let rec drain acc =
        match Virtqueue.backend_pop vq with
        | Some d -> drain (d.Virtqueue.id :: acc)
        | None -> List.rev acc
      in
      drain [] = List.init (List.length posts) Fun.id)

let prop_vq_outstanding_invariant =
  QCheck.Test.make ~name:"outstanding = avail + in-backend + used"
    QCheck.(list (int_bound 2))
    (fun ops ->
      let vq = Virtqueue.create ~size:256 () in
      let next = ref 0 in
      let popped = ref [] in
      List.iter
        (fun op ->
          match op with
          | 0 ->
              ( try Virtqueue.add_avail vq (desc !next)
                with Virtqueue.Ring_full -> () );
              incr next
          | 1 -> (
              match Virtqueue.backend_pop vq with
              | Some d -> popped := d.Virtqueue.id :: !popped
              | None -> ())
          | _ -> (
              match !popped with
              | id :: rest ->
                  Virtqueue.backend_push_used vq ~id ~len:0;
                  popped := rest
              | [] -> ()))
        ops;
      Virtqueue.outstanding vq
      = Virtqueue.avail_count vq + List.length !popped
        + Virtqueue.used_count vq)

(* --- Event_channel ----------------------------------------------------- *)

let test_evtchn_send_consume () =
  let t = Event_channel.create () in
  let port = Event_channel.alloc t ~from_dom:1 ~to_dom:0 in
  Alcotest.(check bool) "initially clear" false (Event_channel.pending t port);
  Event_channel.send t port;
  Event_channel.send t port (* edges coalesce *);
  Alcotest.(check bool) "pending" true (Event_channel.pending t port);
  Alcotest.(check bool) "consume" true (Event_channel.consume t port);
  Alcotest.(check bool) "consumed once" false (Event_channel.consume t port)

let test_evtchn_pending_for () =
  let t = Event_channel.create () in
  let p1 = Event_channel.alloc t ~from_dom:1 ~to_dom:0 in
  let p2 = Event_channel.alloc t ~from_dom:2 ~to_dom:0 in
  let p3 = Event_channel.alloc t ~from_dom:0 ~to_dom:1 in
  Event_channel.send t p2;
  Event_channel.send t p1;
  Event_channel.send t p3;
  Alcotest.(check (list int)) "dom0's pending ports, ascending" [ p1; p2 ]
    (Event_channel.pending_for t 0);
  Alcotest.(check (pair int int)) "peer" (1, 0) (Event_channel.peer t p1)

(* --- Xen_ring ----------------------------------------------------------- *)

let request gt id =
  let gref = Grant_table.grant gt ~to_dom:0 ~ipa_page:id Grant_table.Full in
  { Xen_ring.gref; len = 1500; id }

let test_ring_request_response () =
  let gt = Grant_table.create () in
  let ring = Xen_ring.create ~size:4 () in
  Xen_ring.frontend_push ring (request gt 1);
  (match Xen_ring.backend_pop ring with
  | Some r ->
      Alcotest.(check int) "request id" 1 r.Xen_ring.id;
      (* The backend can only touch the data through the grant. *)
      let page = Grant_table.map gt r.Xen_ring.gref ~by:0 in
      Alcotest.(check int) "granted page" 1 page;
      Grant_table.unmap gt r.Xen_ring.gref ~by:0
  | None -> Alcotest.fail "expected request");
  Xen_ring.backend_respond ring { Xen_ring.id = 1; status = 0 };
  (match Xen_ring.frontend_reap ring with
  | Some { Xen_ring.id = 1; status = 0 } -> ()
  | _ -> Alcotest.fail "response mismatch");
  Alcotest.(check int) "drained" 0 (Xen_ring.outstanding ring)

let test_ring_notification_protocol () =
  let gt = Grant_table.create () in
  let ring = Xen_ring.create () in
  Alcotest.(check bool) "frontend must notify initially" true
    (Xen_ring.frontend_notify_needed ring);
  Xen_ring.frontend_push ring (request gt 1);
  ignore (Xen_ring.backend_pop ring);
  Alcotest.(check bool) "backend live: pushes flow without events" false
    (Xen_ring.frontend_notify_needed ring);
  Xen_ring.backend_respond ring { Xen_ring.id = 1; status = 0 };
  Alcotest.(check bool) "backend must notify frontend" true
    (Xen_ring.backend_notify_needed ring);
  ignore (Xen_ring.frontend_reap ring);
  Xen_ring.frontend_push ring (request gt 2);
  ignore (Xen_ring.backend_pop ring);
  Xen_ring.backend_respond ring { Xen_ring.id = 2; status = 0 };
  Alcotest.(check bool) "frontend live: responses flow without events" false
    (Xen_ring.backend_notify_needed ring)

let test_ring_full_and_ownership () =
  let gt = Grant_table.create () in
  let ring = Xen_ring.create ~size:2 () in
  Xen_ring.frontend_push ring (request gt 1);
  Xen_ring.frontend_push ring (request gt 2);
  (match Xen_ring.frontend_push ring (request gt 3) with
  | () -> Alcotest.fail "expected Ring_full"
  | exception Xen_ring.Ring_full -> ());
  Alcotest.check_raises "respond to unowned id"
    (Invalid_argument "Xen_ring.backend_respond: id not owned by backend")
    (fun () -> Xen_ring.backend_respond ring { Xen_ring.id = 9; status = 0 })

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "io"
    [
      ( "virtqueue",
        [
          Alcotest.test_case "post and complete" `Quick test_vq_post_and_complete;
          Alcotest.test_case "ring full" `Quick test_vq_ring_full;
          Alcotest.test_case "kick suppression" `Quick test_vq_kick_suppression;
          Alcotest.test_case "ownership error" `Quick test_vq_ownership_error;
          Alcotest.test_case "size validation" `Quick test_vq_size_validation;
        ]
        @ qcheck [ prop_vq_fifo; prop_vq_outstanding_invariant ] );
      ( "event_channel",
        [
          Alcotest.test_case "send and consume" `Quick test_evtchn_send_consume;
          Alcotest.test_case "pending_for" `Quick test_evtchn_pending_for;
        ] );
      ( "xen_ring",
        [
          Alcotest.test_case "request/response with grants" `Quick
            test_ring_request_response;
          Alcotest.test_case "notification protocol" `Quick
            test_ring_notification_protocol;
          Alcotest.test_case "full ring and ownership" `Quick
            test_ring_full_and_ownership;
        ] );
    ]
