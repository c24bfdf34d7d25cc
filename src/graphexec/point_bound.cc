#include "graphexec/point_bound.h"

#include <algorithm>
#include <cstring>

namespace grfusion {

namespace {

/// Calls fn(slot, j) for every arc leaving CSR index `u` towards t
/// (`forward`: out-slices, plus in-slices on an undirected view) or
/// towards s (the edges entering u: in-slices of a directed view read
/// their weight through the in→out slot map), where j is the far end's
/// index and slot its EdgeAttrColumn slot. fn returns false to stop.
template <typename Fn>
bool ForEachArc(const CsrTopology& c, bool directed, bool forward, size_t u,
                Fn&& fn) {
  if (forward || !directed) {
    for (size_t k = c.OutBegin(u), end = c.OutEnd(u); k < end; ++k) {
      if (!fn(k, c.IndexOf(c.out_nbr[k]))) return false;
    }
    if (directed) return true;
  }
  const size_t edges = c.NumEdges();
  for (size_t i = c.InBegin(u), end = c.InEnd(u); i < end; ++i) {
    const size_t slot = directed ? c.in_out_slot[i] : edges + i;
    if (!fn(slot, c.IndexOf(c.in_nbr[i]))) return false;
  }
  return true;
}

/// The number of arcs ForEachArc enumerates for `u`.
size_t ArcCount(const CsrTopology& c, bool directed, bool forward, size_t u) {
  const size_t out = c.OutEnd(u) - c.OutBegin(u);
  const size_t in = c.InEnd(u) - c.InBegin(u);
  if (!directed) return out + in;
  return forward ? out : in;
}

}  // namespace

void PointBound::Release(QueryContext* ctx) {
  Uncharge(ctx);
  pages_.Clear();
  fwd_heap_ = {};
  bwd_heap_ = {};
  frontier_[0] = {};
  frontier_[1] = {};
  next_ = {};
}

void PointBound::Begin(size_t vertexes, QueryContext* ctx) {
  Uncharge(ctx);
  pages_.Reset(vertexes);
  fwd_heap_.clear();
  bwd_heap_.clear();
  frontier_[0].clear();
  frontier_[1].clear();
  next_.clear();
  mu_ = 0.0;
  cost_limit_ = 0.0;
  beyond_ = 0.0;
  Charge(pages_.directory_bytes(), ctx);
}

PointBound::Page& PointBound::Touch(size_t i, QueryContext* ctx) {
  bool fresh = false;
  Page& page = pages_.Map(i, &fresh);
  if (fresh) {
    std::memset(page.state, 0, sizeof(page.state));
    Charge(sizeof(Page), ctx);
  }
  return page;
}

Status PointBound::CheckMemoryCap(QueryContext* ctx) {
  if (ctx->over_budget()) {
    return Status::ResourceExhausted(
        "point-to-point bound exceeded the query memory cap");
  }
  return Status::OK();
}

StatusOr<PointBound::Outcome> PointBound::RunDijkstra(
    const CsrTopology& c, bool directed, size_t s, size_t t,
    const EdgeAttrColumn& weight, QueryContext* ctx) {
  Begin(c.NumVertexes(), ctx);
  auto weight_of = [&weight](size_t slot) {
    double w = 0.0;
    weight.Numeric(slot, &w);
    return w;
  };
  auto later = [](const Entry& a, const Entry& b) { return a.dist > b.dist; };
  auto push = [&](std::vector<Entry>* heap, double dist, size_t i) {
    heap->push_back({dist, static_cast<uint32_t>(i)});
    std::push_heap(heap->begin(), heap->end(), later);
    Charge(sizeof(Entry), ctx);
  };
  {
    Page& p = Touch(s, ctx);
    p.state[s & Pages::kMask] = kFwdReached;
    p.fwd[s & Pages::kMask] = 0.0;
    push(&fwd_heap_, 0.0, s);
  }
  {
    Page& p = Touch(t, ctx);
    p.state[t & Pages::kMask] |= kBwdReached;
    p.bwd[t & Pages::kMask] = 0.0;
    push(&bwd_heap_, 0.0, t);
  }

  // The best meeting edge u -> x seen: forward-reached u, backward-reached x.
  double best = std::numeric_limits<double>::infinity();
  size_t meet_u = 0, meet_slot = 0, meet_x = 0;
  while (!fwd_heap_.empty() && !bwd_heap_.empty()) {
    const double top_f = fwd_heap_.front().dist;
    const double top_b = bwd_heap_.front().dist;
    if (top_f + top_b >= best) break;
    GRF_RETURN_IF_ERROR(ctx->CheckInterrupt());
    const bool forward = top_f <= top_b;
    std::vector<Entry>& heap = forward ? fwd_heap_ : bwd_heap_;
    std::pop_heap(heap.begin(), heap.end(), later);
    const Entry e = heap.back();
    heap.pop_back();
    const size_t u = e.index;
    Page& pu = *pages_.Find(u);
    const size_t ku = u & Pages::kMask;
    const uint8_t settled = forward ? kFwdSettled : kBwdSettled;
    if ((pu.state[ku] & settled) != 0 ||
        e.dist > (forward ? pu.fwd[ku] : pu.bwd[ku])) {
      continue;  // A stale entry.
    }
    pu.state[ku] |= settled;
    if (forward) {
      ForEachArc(c, directed, true, u, [&](size_t slot, size_t j) {
        Count(ctx);
        const double d = e.dist + weight_of(slot);
        Page* pj = pages_.Find(j);
        const size_t kj = j & Pages::kMask;
        const uint8_t st = pj != nullptr ? pj->state[kj] : 0;
        if ((st & kFwdReached) == 0 || d < pj->fwd[kj]) {
          if (pj == nullptr) pj = &Touch(j, ctx);
          pj->state[kj] = st | kFwdReached;
          pj->fwd[kj] = d;
          push(&fwd_heap_, d, j);
        }
        if ((st & kBwdReached) != 0 && d + pj->bwd[kj] < best) {
          best = d + pj->bwd[kj];
          meet_u = u;
          meet_slot = slot;
          meet_x = j;
        }
        return true;
      });
    } else {
      ForEachArc(c, directed, false, u, [&](size_t slot, size_t j) {
        Count(ctx);
        const double w = weight_of(slot);
        const double d = e.dist + w;
        Page* pj = pages_.Find(j);
        const size_t kj = j & Pages::kMask;
        const uint8_t st = pj != nullptr ? pj->state[kj] : 0;
        if ((st & kBwdReached) == 0 || d < pj->bwd[kj]) {
          if (pj == nullptr) pj = &Touch(j, ctx);
          pj->state[kj] = st | kBwdReached;
          pj->bwd[kj] = d;
          pj->next[kj] = static_cast<uint32_t>(u);
          pj->slot[kj] = slot;
          push(&bwd_heap_, d, j);
        }
        if ((st & kFwdReached) != 0 && (pj->fwd[kj] + w) + e.dist < best) {
          best = (pj->fwd[kj] + w) + e.dist;
          meet_u = j;
          meet_slot = slot;
          meet_x = u;
        }
        return true;
      });
    }
    GRF_RETURN_IF_ERROR(CheckMemoryCap(ctx));
  }
  if (best == std::numeric_limits<double>::infinity()) {
    return Outcome::kUnreachable;
  }

  // μ is the forward sum, in SPScan's order, along the walk s ~> meet_u ->
  // meet_x ~> t: the forward label of meet_u is already such a sum, and
  // the backward labels' next pointers lead from meet_x to t.
  double mu = pages_.Find(meet_u)->fwd[meet_u & Pages::kMask] +
              weight_of(meet_slot);
  for (size_t v = meet_x; v != t;) {
    const Page& pv = *pages_.Find(v);
    mu += weight_of(pv.slot[v & Pages::kMask]);
    v = pv.next[v & Pages::kMask];
  }
  mu_ = mu;
  // δ = 16 (V + 2) u with u = 2^-53, the unit roundoff (DESIGN.md §16).
  const double delta = 16.0 * static_cast<double>(c.NumVertexes() + 2) *
                       (std::numeric_limits<double>::epsilon() / 2);
  cost_limit_ = mu * (1.0 + delta);
  // A vertex the backward search did not settle is at least as far from t
  // as its heap's head (a path to t leaves the settled set through a
  // vertex queued at its exact distance), and cannot reach t once the
  // heap ran dry.
  beyond_ = bwd_heap_.empty() ? std::numeric_limits<double>::infinity()
                              : bwd_heap_.front().dist;
  return Outcome::kBound;
}

StatusOr<PointBound::Outcome> PointBound::RunHops(const CsrTopology& c,
                                                  bool directed, size_t s,
                                                  size_t t,
                                                  const EdgeTest* test,
                                                  QueryContext* ctx) {
  Begin(c.NumVertexes(), ctx);
  constexpr uint8_t kFwd = kFwdReached | kFwdSettled;
  constexpr uint8_t kBwd = kBwdReached | kBwdSettled;
  {
    Page& p = Touch(s, ctx);
    p.state[s & Pages::kMask] = kFwd;
    p.fwd[s & Pages::kMask] = 0.0;
  }
  {
    Page& p = Touch(t, ctx);
    p.state[t & Pages::kMask] |= kBwd;
    p.bwd[t & Pages::kMask] = 0.0;
  }
  frontier_[0].push_back(static_cast<uint32_t>(s));
  frontier_[1].push_back(static_cast<uint32_t>(t));
  Charge(2 * sizeof(uint32_t), ctx);
  double level[2] = {0.0, 0.0};  // Each side's frontier depth.
  size_t work[2] = {ArcCount(c, directed, true, s),
                    ArcCount(c, directed, false, t)};
  while (!frontier_[0].empty() && !frontier_[1].empty()) {
    // Expand the side with fewer arcs to walk, one whole level.
    const int side = work[0] <= work[1] ? 0 : 1;
    const bool forward = side == 0;
    const uint8_t own = forward ? kFwd : kBwd;
    const uint8_t other = forward ? kBwdReached : kFwdReached;
    const double depth = level[side] + 1;
    next_.clear();
    size_t next_work = 0;
    bool met = false;
    bool gave_up = false;
    for (uint32_t u : frontier_[side]) {
      GRF_RETURN_IF_ERROR(ctx->CheckInterrupt());
      ForEachArc(c, directed, forward, u, [&](size_t slot, size_t j) {
        Count(ctx);
        Page* pj = pages_.Find(j);
        const size_t kj = j & Pages::kMask;
        const uint8_t st = pj != nullptr ? pj->state[kj] : 0;
        if ((st & own) != 0) return true;
        if (test != nullptr) {
          const int verdict = (*test)(slot);
          if (verdict < 0) {
            gave_up = true;
            return false;
          }
          if (verdict == 0) return true;
        }
        if ((st & other) != 0) {
          // Every vertex nearer than `depth` to this side was labelled when
          // the other side labelled j, so the first meeting is optimal.
          mu_ = depth + (forward ? pj->bwd[kj] : pj->fwd[kj]);
          met = true;
          return false;
        }
        if (pj == nullptr) pj = &Touch(j, ctx);
        pj->state[kj] = st | own;
        (forward ? pj->fwd : pj->bwd)[kj] = depth;
        next_.push_back(static_cast<uint32_t>(j));
        next_work += ArcCount(c, directed, forward, j);
        return true;
      });
      if (gave_up) return Outcome::kNone;
      if (met) {
        // Backward levels 0..level[1]-1 are complete, so every vertex the
        // backward side did not label is more than level[1] from t.
        beyond_ = level[1] + 1;
        return Outcome::kBound;
      }
    }
    Charge(next_.size() * sizeof(uint32_t), ctx);
    GRF_RETURN_IF_ERROR(CheckMemoryCap(ctx));
    frontier_[side].swap(next_);
    level[side] = depth;
    work[side] = next_work;
  }
  return Outcome::kUnreachable;
}

}  // namespace grfusion
