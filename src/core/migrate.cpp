// Object migration (docs/agas.md): migrate_gid_async, the one primitive
// behind migrate_gid and the rebalancer in both deployment shapes, and
// the receiving side of the cross-process handoff.  The wire actions are
// registered in runtime.cpp (action ids are positional), which this file
// reaches through runtime::send_migration and runtime::send_agas_update.
#include <mutex>
#include <string>

#include "core/action.hpp"
#include "core/runtime.hpp"
#include "lco/lco.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace px::core {

void runtime::tag_migratable_object(gas::gid id, std::string type_name) {
  std::lock_guard lock(mig_types_lock_);
  mig_types_[id] = std::move(type_name);
}

std::optional<std::string> runtime::migration_type_of(gas::gid id) const {
  std::lock_guard lock(mig_types_lock_);
  const auto it = mig_types_.find(id);
  if (it == mig_types_.end()) return std::nullopt;
  return it->second;
}

std::vector<gas::gid> runtime::migratable_residents(gas::locality_id where,
                                                    std::size_t max) const {
  std::vector<gas::gid> tagged;
  {
    std::lock_guard lock(mig_types_lock_);
    tagged.reserve(mig_types_.size());
    for (const auto& [id, type] : mig_types_) {
      (void)type;
      tagged.push_back(id);
    }
  }
  // Residency check outside the types lock (has_object takes the object
  // table lock; never hold both).
  std::vector<gas::gid> out;
  const locality& loc = *localities_.at(where);
  for (const auto id : tagged) {
    if (out.size() >= max) break;
    if (loc.has_object(id)) out.push_back(id);
  }
  return out;
}

bool runtime::claim_migration(gas::gid id) {
  std::lock_guard lock(migrating_lock_);
  return migrating_.insert(id).second;
}

void runtime::release_migration(gas::gid id) {
  std::lock_guard lock(migrating_lock_);
  migrating_.erase(id);
}

std::uint8_t runtime::apply_agas_update(gas::gid id,
                                        gas::locality_id new_owner) {
  // effective_home: after a rank loss this update may land at the
  // casualty's successor, whose adopted shard starts empty — hence the
  // tolerant rebind (upsert) instead of migrate's bound-entry assert.
  PX_ASSERT_MSG(!distributed_ || effective_home(id) == rank_,
                "px.agas_update landed off the home rank");
  agas_.rebind(id, new_owner);
  // Refresh this rank's own forwarding view too: routing from the home
  // should go straight to the new owner, not through a stale cache entry
  // that would bounce the parcel off the previous one.
  agas_.note_owner(rank_, id, new_owner);
  return 1;
}

std::uint8_t runtime::migrate_implant(const parcel::migration_record& rec) {
  const gas::gid id = gas::gid::from_bits(rec.gid_bits);
  if (trace::enabled()) {
    trace::emit_here(trace::event_kind::migrate_implant, rec.gid_bits,
                     static_cast<std::uint32_t>(rank_));
  }
  const auto* vt = parcel::migratable_registry::global().find(rec.type_name);
  PX_ASSERT_MSG(vt != nullptr,
                "migration record names an unregistered type — ranks must "
                "run the same binary with PX_REGISTER_MIGRATABLE in effect");
  auto obj = vt->decode(rec.payload);
  PX_ASSERT(obj != nullptr);
  // Claim the gid for the whole implant, *including* the home round trip:
  // the object must not be eligible for an onward migration until the
  // home has acknowledged ours.  Without this, a chained A->B->C handoff
  // could put B's and C's px.agas_update parcels on different connections
  // and the home could apply them out of order, leaving the directory
  // pointing at a rank that already retired its copy — a permanently
  // stranded object.  Serializing handoff N+1 behind handoff N's home ack
  // makes directory-update application order follow real time.
  const bool claimed = claim_migration(id);
  PX_ASSERT_MSG(claimed,
                "migration implant for a gid already mid-handoff here");
  tag_migratable_object(id, rec.type_name);
  // Implant before the directory flips: from this moment a parcel landing
  // here (raced ahead on a fresh hint) dispatches instead of bouncing.
  here().put_object(id, std::move(obj));
  // effective_home: if the gid's encoded home died, the directory flip
  // goes to (or happens at) the adopted shard's successor instead.
  const gas::locality_id dir_home = effective_home(id);
  if (dir_home == rank_) {
    apply_agas_update(id, rank_);
  } else {
    lco::promise<std::uint8_t> prom;
    auto fut = prom.get_future();
    send_agas_update(dir_home, id,
                     make_promise_sink<std::uint8_t>(here(), std::move(prom)));
    const std::uint8_t ok = fut.get();
    PX_ASSERT_MSG(ok == 1, "home rank refused the directory update");
  }
  agas_.note_owner(rank_, id, rank_);
  release_migration(id);
  return 1;
}

bool runtime::migrate_gid(gas::gid id, gas::locality_id to) {
  if (id.kind() != gas::gid_kind::data) return false;
  PX_ASSERT(to < params_.localities);
  if (!distributed_) {
    // The move re-checks the owner under the claim.
    const auto owner = agas_.resolve_authoritative(0, id);
    if (!owner.has_value()) return false;
    return *owner == to || migrate_gid_async(id, *owner, to, nullptr);
  }
  if (to == rank_) return here().has_object(id);
  PX_ASSERT_MSG(this_locality() != nullptr,
                "migrate_gid must run on a ParalleX thread in distributed "
                "mode (it blocks on the handoff acknowledgment)");
  // The blocking form is the async handoff plus a future on the ack.
  lco::promise<std::uint8_t> prom;
  auto fut = prom.get_future();
  const bool issued = migrate_gid_async(
      id, rank_, to, [prom](bool ok) mutable { prom.set_value(ok ? 1 : 0); });
  if (!issued) return false;
  return fut.get() == 1;
}

bool runtime::migrate_gid_async(gas::gid id, gas::locality_id from,
                                gas::locality_id to,
                                std::function<void(bool)> done) {
  // A parcel toward a lost rank is dropped by route(), so a handoff there
  // would never be acknowledged: refuse it up front.
  if (id.kind() != gas::gid_kind::data || from == to ||
      to >= params_.localities || peer_lost(to)) {
    return false;
  }
  if (distributed_ && (!migration_enabled_ || from != rank_)) return false;
  if (!claim_migration(id)) return false;

  if (!distributed_) {
    // The shared_ptr handoff.  Only an object the directory still places
    // at `from` moves: a stale heat entry for one that already migrated
    // away must not yank it off the innocent locality it moved to.
    const auto owner = agas_.resolve_authoritative(to, id);
    auto obj = owner == from ? at(from).get_object(id) : nullptr;
    const bool moved = obj != nullptr;
    if (moved) {
      at(to).put_object(id, std::move(obj));
      agas_.migrate(id, to);
      at(from).erase_object(id);
    }
    release_migration(id);
    if (moved && done) done(true);
    return moved;
  }

  const auto obj = here().get_object(id);
  const auto type = migration_type_of(id);
  const parcel::migratable_registry::vtable* vt =
      type.has_value() ? parcel::migratable_registry::global().find(*type)
                       : nullptr;
  if (obj == nullptr || vt == nullptr) {
    release_migration(id);
    return false;
  }
  parcel::migration_record rec;
  rec.gid_bits = id.bits();
  rec.type_name = *type;
  rec.payload = vt->encode(obj);
  if (trace::enabled()) {
    trace::emit_here(trace::event_kind::migrate_begin, id.bits(),
                     static_cast<std::uint32_t>(to));
  }
  // The ack continuation is a plain sink: its fire closure runs on the
  // delivery thread and does only non-blocking work.
  const gas::gid sink = here().register_sink(
      [this, id, to, done = std::move(done)](parcel::parcel) {
        here().erase_object(id);
        {
          // Retire the type tag with the copy: the destination re-tagged
          // on implant, and keeping ours would grow mig_types_ (and the
          // rebalancer's residency scans) with every object that ever
          // passed through this rank.
          std::lock_guard lock(mig_types_lock_);
          mig_types_.erase(id);
        }
        agas_.note_owner(rank_, id, to);
        release_migration(id);
        if (trace::enabled()) {
          trace::emit_here(trace::event_kind::migrate_end, id.bits(),
                           static_cast<std::uint32_t>(to));
        }
        if (done) done(true);
      });
  send_migration(to, rec, parcel::continuation{sink, sink_action_id()});
  return true;
}

}  // namespace px::core
