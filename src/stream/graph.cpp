#include "stream/graph.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/check.hpp"

namespace ff::stream {

void Graph::connect(Element& from, std::size_t out_port, Element& to, std::size_t in_port,
                    std::size_t capacity) {
  FF_CHECK_MSG(capacity >= 1, "channel " << from.name() << " -> " << to.name()
                                         << " needs capacity >= 1 block");
  FF_CHECK_MSG(&from != &to, from.name() << " cannot connect to itself");
  auto ch = std::make_unique<Channel>(capacity);
  ch->producer = &from;
  ch->consumer = &to;
  ch->producer_port = out_port;
  ch->consumer_port = in_port;
  from.attach_output(out_port, ch.get());
  to.attach_input(in_port, ch.get());
  channels_.push_back(std::move(ch));
  invalidate();
}

Element* Graph::find(const std::string& name) const {
  for (const auto& e : elements_)
    if (e->name() == name) return e.get();
  return nullptr;
}

Element& Graph::at(const std::string& name) const {
  Element* e = find(name);
  if (!e) {
    std::string known;
    for (const auto& el : elements_) {
      if (!known.empty()) known += ", ";
      known += el->name();
    }
    FF_CHECK_MSG(false, "no element named '" << name << "' (have: " << known << ")");
  }
  return *e;
}

const Handler& Graph::handler(const std::string& elem, const std::string& name) {
  Element& e = at(elem);
  const Handler* h = e.handlers().find(name);
  FF_CHECK_MSG(h != nullptr, elem << " (" << e.class_name() << ") has no handler '"
                                  << name << "'");
  return *h;
}

void Graph::validate() {
  if (validated_) return;
  FF_CHECK_MSG(!elements_.empty(), "stream graph has no elements");

  std::unordered_set<std::string> names;
  for (const auto& e : elements_) {
    FF_CHECK_MSG(names.insert(e->name()).second,
                 "duplicate element name '" << e->name()
                                            << "' (names key the stream.* metrics)");
    for (std::size_t p = 0; p < e->n_inputs(); ++p)
      FF_CHECK_MSG(e->inputs_[p] != nullptr,
                   "input " << p << " of " << e->name() << " is not connected");
    for (std::size_t p = 0; p < e->n_outputs(); ++p)
      FF_CHECK_MSG(e->outputs_[p] != nullptr,
                   "output " << p << " of " << e->name() << " is not connected");
  }

  // Kahn topological sort over the element adjacency; level(e) is the
  // longest path from any source, so a channel always crosses to a
  // strictly higher level.
  std::unordered_map<const Element*, std::size_t> in_degree;
  std::unordered_map<const Element*, std::size_t> level;
  for (const auto& e : elements_) in_degree[e.get()] = e->n_inputs();

  std::vector<Element*> frontier;
  for (const auto& e : elements_)
    if (e->n_inputs() == 0) {
      frontier.push_back(e.get());
      level[e.get()] = 0;
    }
  FF_CHECK_MSG(!frontier.empty(), "stream graph has no source (0-input element)");

  std::size_t visited = 0;
  while (!frontier.empty()) {
    std::vector<Element*> next;
    for (Element* e : frontier) {
      ++visited;
      for (const Channel* ch : e->outputs_) {
        Element* down = ch->consumer;
        level[down] = std::max(level[down], level[e] + 1);
        if (--in_degree[down] == 0) next.push_back(down);
      }
    }
    frontier = std::move(next);
  }
  if (visited != elements_.size()) {
    // Name one element on the cycle for the error message.
    std::string culprit;
    for (const auto& e : elements_)
      if (in_degree[e.get()] != 0) {
        culprit = e->name();
        break;
      }
    FF_CHECK_MSG(false, "stream graph has a cycle (through '"
                            << culprit << "'); break it with an explicit Queue "
                            << "and a feedback-free topology");
  }

  order_.reserve(elements_.size());
  for (const auto& e : elements_) order_.push_back(e.get());
  std::stable_sort(order_.begin(), order_.end(), [&](const Element* a, const Element* b) {
    return level.at(a) < level.at(b);
  });
  validated_ = true;
}

const std::vector<Element*>& Graph::topo_order() const {
  FF_CHECK_MSG(validated_, "topo_order() needs a validated graph");
  return order_;
}

bool Graph::finished() const {
  for (const auto& ch : channels_)
    if (!ch->drained()) return false;
  return true;
}

void Graph::set_metrics(MetricsRegistry* metrics) {
  for (const auto& e : elements_) e->set_metrics(metrics);
}

}  // namespace ff::stream
